package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"dbpsim"
	"dbpsim/internal/obs"
	"dbpsim/internal/stats"
	"dbpsim/internal/trace"
)

// lightMix is sim-light's traffic: eight light and medium benchmarks.
func lightMix() dbpsim.Mix {
	return dbpsim.Mix{Name: "W8-light", Category: "L", Members: []string{
		"gobmk-like", "calculix-like", "povray-like", "h264-like",
		"gcc-like", "cactus-like", "zeusmp-like", "astar-like"}}
}

// Budgets: the paper's per-core instruction counts, or the self-test's.
const (
	paperWarmup, paperMeasure = 200_000, 400_000
	tinyWarmup, tinyMeasure   = 2_000, 5_000
	// After each repetition, setupSamples batches of setupBatch NewSystem
	// builds are timed; setup_s is the median per-build time over every
	// batch of the invocation.
	setupSamples, setupBatch = 9, 8
)

// simRun is one sim workload invocation: the DBP-TCM policy point on one
// mix, with the seed as the only varying input.
type simRun struct {
	mix             dbpsim.Mix
	cfg             dbpsim.Config
	warmup, measure uint64
}

// repResult is one untraced cold repetition: a run the way a dbpsim user
// makes it, from request to ledger bytes.
type repResult struct {
	ledger []byte
	// runS is the CPU time of Experiment.RunMix on a fresh experiment plus
	// BuildLedger and encode.
	runS float64
	// coldMS is the CPU time of each member's cold alone baseline, measured
	// again through Experiment.AloneIPC on a second fresh experiment.
	coldMS    []float64
	seeds     []int64
	baselines map[string]float64 // the alone IPCs RunMix cached
}

// warmResult is one untraced warm repetition: Experiment.RunMix on a fresh
// experiment that already holds the mix's alone baselines, as a fleet
// worker runs a cell whose baselines a peer measured. What it times is the
// shared run alone.
type warmResult struct {
	ledger       []byte
	sharedS      float64 // CPU time of RunMix
	instructions uint64  // retired in the shared run
}

// tracedResult is one traced repetition: the same run split into the
// public calls RunMix makes, with spans, a recorder and a CPU profile.
type tracedResult struct {
	ledger               []byte
	sharedS, baselineS   float64
	ledgerS, totalS      float64
	res                  dbpsim.Result
	cycles, skipped      uint64
	enqueues             uint64
	nextCalls, nextTimed uint64
	nextTimedNS          int64
	profile              []byte
}

// countingGen wraps the trace.Generator handed to NewSystem: it counts
// every Next call and times one call in 64, so the timing itself stays a
// small share of the trace layer it measures.
type countingGen struct {
	inner   trace.Generator
	calls   uint64
	timed   uint64
	timedNS int64
}

// clockOverheadNS is what an empty time.Now/time.Since pair measures: the
// part of each timed Next call that is the timing itself, subtracted from
// trace.ns_per_next.
func clockOverheadNS() float64 {
	xs := make([]float64, 0, 10_001)
	for i := 0; i < cap(xs); i++ {
		t := time.Now()
		xs = append(xs, float64(time.Since(t).Nanoseconds()))
	}
	return median(xs)
}

func (g *countingGen) Next() trace.Item {
	g.calls++
	if g.calls&63 != 0 {
		return g.inner.Next()
	}
	t := time.Now()
	it := g.inner.Next()
	g.timedNS += time.Since(t).Nanoseconds()
	g.timed++
	return it
}

// defaultConfigFor is the paper's system for the mix's core count, with
// the workload seed as its only change.
func defaultConfigFor(mix dbpsim.Mix, seed int64) dbpsim.Config {
	cfg := dbpsim.DefaultConfig(mix.Cores())
	cfg.Seed = seed
	return cfg
}

// runConfig is the configuration the shared system runs under.
func (w *simRun) runConfig() dbpsim.Config {
	cfg := w.cfg
	cfg.Cores = w.mix.Cores()
	cfg.Scheduler = dbpsim.SchedTCM
	cfg.Partition = dbpsim.PartDBP
	return cfg
}

// memberSeeds recovers each member's trace seed from the alone baselines a
// finished RunMix cached, whose keys are "<bench>/<seed>". Both benchmark
// mixes name each member once, so the name alone finds its key.
func (w *simRun) memberSeeds(baselines map[string]float64) ([]int64, error) {
	seeds := make([]int64, len(w.mix.Members))
	for i, name := range w.mix.Members {
		found := 0
		for k := range baselines {
			bench, seed, ok := strings.Cut(k, "/")
			if !ok || bench != name {
				continue
			}
			n, err := strconv.ParseInt(seed, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("baseline key %q: %w", k, err)
			}
			seeds[i] = n
			found++
		}
		if found != 1 {
			return nil, fmt.Errorf("member %s has %d cached baselines, want 1", name, found)
		}
	}
	return seeds, nil
}

// benches materialises the mix's trace generators from the member seeds,
// optionally wrapped to count and time Next calls.
func (w *simRun) benches(seeds []int64, wrap bool) ([]dbpsim.Bench, []*countingGen, error) {
	benches := make([]dbpsim.Bench, len(w.mix.Members))
	var gens []*countingGen
	for i, name := range w.mix.Members {
		spec, ok := dbpsim.BenchByName(name)
		if !ok {
			return nil, nil, fmt.Errorf("unknown benchmark %q", name)
		}
		var gen trace.Generator = spec.New(seeds[i])
		if wrap {
			cg := &countingGen{inner: gen}
			gens = append(gens, cg)
			gen = cg
		}
		benches[i] = dbpsim.Bench{Name: name, Gen: gen}
	}
	return benches, gens, nil
}

// setup times setupSamples batches of NewSystem builds with fresh trace
// generators, before any cycle runs, and returns the per-build CPU time of
// each batch. A batch runs on one locked OS thread and is timed with that
// thread's clock, after a forced GC: it pays for its own allocation (page
// faults and GC assists included) but not for collector work on other
// threads left over from the run before it.
func (w *simRun) setup(seeds []int64) ([]float64, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	cfg := w.runConfig()
	out := make([]float64, 0, setupSamples)
	for s := 0; s < setupSamples; s++ {
		batch := make([][]dbpsim.Bench, setupBatch)
		for i := range batch {
			b, _, err := w.benches(seeds, false)
			if err != nil {
				return nil, err
			}
			batch[i] = b
		}
		runtime.GC()
		c := threadCPU()
		for _, b := range batch {
			if _, err := dbpsim.NewSystem(cfg, b); err != nil {
				return nil, err
			}
		}
		out = append(out, (threadCPU()-c).Seconds()/setupBatch)
	}
	return out, nil
}

// rep performs one run as a dbpsim user makes it: Experiment.RunMix on a
// fresh experiment (so the alone baselines are cold), then BuildLedger and
// encode. It then measures the same cold baselines again, for cold_p50_ms.
func (w *simRun) rep() (repResult, error) {
	var r repResult
	runtime.GC()
	exp := dbpsim.NewExperiment(w.cfg, w.warmup, w.measure)
	c0 := procCPU()
	run, err := exp.RunMix(w.mix, dbpsim.SchedTCM, dbpsim.PartDBP)
	if err != nil {
		return r, err
	}
	if r.ledger, err = w.encode(run); err != nil {
		return r, err
	}
	r.runS = (procCPU() - c0).Seconds()

	r.baselines = exp.ExportBaselines()
	if r.seeds, err = w.memberSeeds(r.baselines); err != nil {
		return r, err
	}
	r.coldMS, err = w.coldBaselines(r.seeds, r.baselines)
	return r, err
}

// coldBaselines measures each member's cold alone baseline through
// Experiment.AloneIPC on a fresh experiment and returns the CPU
// milliseconds of each. Every IPC must equal the one RunMix cached.
func (w *simRun) coldBaselines(seeds []int64, baselines map[string]float64) ([]float64, error) {
	runtime.GC()
	cold := dbpsim.NewExperiment(w.cfg, w.warmup, w.measure)
	ms := make([]float64, 0, len(w.mix.Members))
	for i, name := range w.mix.Members {
		m := procCPU()
		ipc, err := cold.AloneIPC(name, seeds[i])
		ms = append(ms, float64((procCPU()-m).Nanoseconds())/1e6)
		if err != nil {
			return nil, err
		}
		if key := name + "/" + strconv.FormatInt(seeds[i], 10); ipc != baselines[key] {
			return nil, fmt.Errorf("cold alone IPC of %s is %v, RunMix measured %v", key, ipc, baselines[key])
		}
	}
	return ms, nil
}

// warmRep times Experiment.RunMix on a fresh experiment given the alone
// baselines a cold repetition measured, so the time is the shared run's:
// NewSystem, System.Run and the metrics. Its ledger, encoded untimed, must
// equal the cold run's byte for byte.
func (w *simRun) warmRep(baselines map[string]float64) (warmResult, error) {
	var r warmResult
	runtime.GC()
	exp := dbpsim.NewExperiment(w.cfg, w.warmup, w.measure)
	exp.ImportBaselines(baselines)
	c := procCPU()
	run, err := exp.RunMix(w.mix, dbpsim.SchedTCM, dbpsim.PartDBP)
	r.sharedS = (procCPU() - c).Seconds()
	if err != nil {
		return r, err
	}
	for _, t := range run.Result.Threads {
		r.instructions += t.Instructions
	}
	r.ledger, err = w.encode(run)
	return r, err
}

// encode builds the run's ledger and encodes it as dbpsim -json writes it.
func (w *simRun) encode(run dbpsim.MixRun) ([]byte, error) {
	led, err := dbpsim.BuildLedger("perfbench", w.cfg, w.warmup, w.measure, run, nil)
	if err != nil {
		return nil, err
	}
	return obs.MarshalLedger(led)
}

// tracedRep performs the run RunMix makes as its public calls (NewSystem,
// System.Run, one Experiment.AloneIPC per member on a fresh experiment,
// metrics, BuildLedger, encode), recording a span around each, wrapping
// the trace generators, attaching a recorder and profiling System.Run. Its
// ledger must equal RunMix's byte for byte.
func (w *simRun) tracedRep(tr *tracer, req string, seeds []int64) (tracedResult, error) {
	var r tracedResult
	runtime.GC()
	exp := dbpsim.NewExperiment(w.cfg, w.warmup, w.measure)
	root := tr.start(req, "rep", 0)
	c0 := procCPU()

	benches, gens, err := w.benches(seeds, true)
	if err != nil {
		return r, err
	}
	sp := tr.start(req, "NewSystem", root)
	sys, err := dbpsim.NewSystem(w.runConfig(), benches)
	tr.end(sp, nil)
	if err != nil {
		return r, err
	}
	sys.SetCycleSkipping(true)
	cfg := w.runConfig()
	rec, err := dbpsim.NewRecorder(dbpsim.RecorderOptions{NumThreads: cfg.Cores, NumBanks: cfg.Geometry.NumColors()})
	if err != nil {
		return r, err
	}
	sys.AttachRecorder(rec)

	var prof bytes.Buffer
	sp = tr.start(req, "System.Run", root)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return r, fmt.Errorf("start cpu profile: %w", err)
	}
	c := procCPU()
	res, err := sys.Run(w.warmup, w.measure, 0)
	r.sharedS = (procCPU() - c).Seconds()
	pprof.StopCPUProfile()
	r.profile = prof.Bytes()
	tr.end(sp, map[string]any{"cycles": sys.Cycle(), "skipped_cycles": sys.SkippedCycles()})
	if err != nil {
		return r, err
	}
	r.res, r.cycles, r.skipped = res, sys.Cycle(), sys.SkippedCycles()

	sp = tr.start(req, "baselines", root)
	c = procCPU()
	threads := make([]stats.ThreadPerf, len(res.Threads))
	for i, t := range res.Threads {
		a := tr.start(req, "Experiment.AloneIPC", sp)
		alone, err := exp.AloneIPC(t.Name, seeds[i])
		tr.end(a, map[string]any{"bench": t.Name})
		if err != nil {
			return r, err
		}
		threads[i] = stats.ThreadPerf{Name: t.Name, IPCShared: t.IPC, IPCAlone: alone}
	}
	r.baselineS = (procCPU() - c).Seconds()
	tr.end(sp, nil)
	m, err := stats.ComputeMetrics(threads)
	if err != nil {
		return r, err
	}
	run := dbpsim.MixRun{Mix: w.mix, Scheduler: dbpsim.SchedTCM, Partition: dbpsim.PartDBP, Metrics: m, Result: res}

	c = procCPU()
	sp = tr.start(req, "BuildLedger", root)
	led, err := dbpsim.BuildLedger("perfbench", w.cfg, w.warmup, w.measure, run, nil)
	tr.end(sp, nil)
	if err != nil {
		return r, err
	}
	sp = tr.start(req, "encode", root)
	r.ledger, err = obs.MarshalLedger(led)
	tr.end(sp, nil)
	if err != nil {
		return r, err
	}
	r.ledgerS = (procCPU() - c).Seconds()
	r.totalS = (procCPU() - c0).Seconds()
	tr.end(root, nil)

	r.enqueues = rec.Counters()[obs.CounterEnqueues]
	for _, g := range gens {
		r.nextCalls += g.calls
		r.nextTimed += g.timed
		r.nextTimedNS += g.timedNS
	}
	return r, nil
}

// checkLedger is the sim correctness check: the ledger parses through the
// public loader and its sha256 is the one every other repetition produced.
func checkLedger(data []byte, wantSHA string) (dbpsim.Ledger, error) {
	led, err := dbpsim.LoadLedgerBytes(data)
	if err != nil {
		return led, fmt.Errorf("ledger does not parse: %w", err)
	}
	if got := sha256Hex(data); got != wantSHA {
		return led, fmt.Errorf("ledger sha256 %s differs from %s", got, wantSHA)
	}
	return led, nil
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// runSim runs sim-light. It repeats runs while the next one is expected to
// end inside the --seconds window. Untraced, repetitions alternate between
// cold (rep) and warm (warmRep), and there is always at least one of each;
// traced, each repetition is a cold run followed by a traced one.
func runSim(opt options, mix dbpsim.Mix) (outcome, error) {
	w := &simRun{mix: mix, cfg: defaultConfigFor(mix, opt.seed), warmup: paperWarmup, measure: paperMeasure}
	if opt.tiny {
		w.warmup, w.measure = tinyWarmup, tinyMeasure
	}
	out := outcome{values: map[string]float64{}, info: map[string]any{}}

	var tr *tracer
	if opt.trace {
		tr = newTracer()
	}
	var setups []float64
	var peakMB float64
	var plain []repResult
	var warm []warmResult
	var traced []tracedResult
	var firstSHA string
	var checkErr error
	check := func(ledger []byte) {
		if firstSHA == "" {
			firstSHA = sha256Hex(ledger)
		}
		if _, err := checkLedger(ledger, firstSHA); err != nil && checkErr == nil {
			checkErr = err
		}
	}
	start := time.Now()
	window := time.Duration(opt.seconds * float64(time.Second))
	// last holds the duration of the latest warm and cold repetition.
	last := map[bool]time.Duration{}
	isWarm := func(i int) bool { return !opt.trace && i%2 == 1 }
	for i := 0; i == 0 || (isWarm(i) && len(warm) == 0) || time.Since(start)+last[isWarm(i)] <= window; i++ {
		t0 := time.Now()
		if isWarm(i) {
			r, err := w.warmRep(plain[len(plain)-1].baselines)
			if err != nil {
				return out, err
			}
			check(r.ledger)
			warm = append(warm, r)
			s, err := w.setup(plain[0].seeds)
			if err != nil {
				return out, err
			}
			setups = append(setups, s...)
			last[isWarm(i)] = time.Since(t0)
			continue
		}
		r, err := w.rep()
		if err != nil {
			return out, err
		}
		check(r.ledger)
		plain = append(plain, r)
		if i == 0 {
			// Peak memory of the run itself, before the set-up samples
			// below hold several systems at once.
			if peakMB, err = peakRSSMB("self"); err != nil {
				return out, err
			}
		}
		if opt.trace {
			t, err := w.tracedRep(tr, "rep-"+strconv.Itoa(i), r.seeds)
			if err != nil {
				return out, err
			}
			check(t.ledger)
			traced = append(traced, t)
		} else {
			s, err := w.setup(r.seeds)
			if err != nil {
				return out, err
			}
			setups = append(setups, s...)
		}
		last[isWarm(i)] = time.Since(t0)
	}
	out.attempted = int64(len(plain) + len(warm) + len(traced))
	out.checkErr = checkErr

	led, err := checkLedger(plain[0].ledger, firstSHA)
	if err != nil && out.checkErr == nil {
		out.checkErr = err
	}
	out.info["ledger_sha256"] = firstSHA
	out.info["mix"] = mix.Name
	out.info["reps"] = len(plain)
	out.info["warm_reps"] = len(warm)
	out.info["warmup"], out.info["measure"] = w.warmup, w.measure

	if !opt.trace {
		// Timings are medians over the repetitions: the host runs identical
		// work faster and slower by turns, and in five sim-light runs the
		// fastest repetition spread three to five times as much from run to
		// run as the median did (README.md).
		var runS, sharedS []float64
		coldP50 := make([]float64, len(mix.Members))
		for i := range coldP50 {
			var xs []float64
			for _, r := range plain {
				xs = append(xs, r.coldMS[i])
			}
			coldP50[i] = median(xs)
		}
		for _, r := range plain {
			runS = append(runS, r.runS)
		}
		for _, r := range warm {
			sharedS = append(sharedS, r.sharedS)
		}
		out.values = map[string]float64{
			"setup_s":      median(setups),
			"run_s":        median(runS),
			"sim_mips":     float64(warm[0].instructions) / median(sharedS) / 1e6,
			"mem_peak_mb":  peakMB,
			"ws":           led.Metrics.WeightedSpeedup,
			"max_slowdown": led.Metrics.MaxSlowdown,
			"cells_per_s":  1 / median(runS),
			"cold_p50_ms":  median(coldP50),
		}
		return out, nil
	}

	// Traced run: the per-layer table.
	out.values = w.layerValues(plain, traced)
	path := filepath.Join(opt.outDir, fmt.Sprintf("spans-%s-seed%d.json", opt.workload, opt.seed))
	if err := tr.write(path, map[string]any{"host": hostFingerprint(opt.commit, opt.sourceSHA), "workload": opt.workload,
		"seed": opt.seed, "ledger_sha256": firstSHA, "layers": out.values}); err != nil {
		return out, err
	}
	out.info["spans"] = path
	return out, nil
}

// layerValues turns the traced repetitions into the per-layer metrics.
func (w *simRun) layerValues(plain []repResult, traced []tracedResult) map[string]float64 {
	v := map[string]float64{}
	byLayer := map[string]int64{}
	var total int64
	var tracedS, plainS, shared, baseline, ledger, nsPerNext []float64
	for _, r := range traced {
		layers, err := cpuByLayer(r.profile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: skipping unreadable profile:", err)
			continue
		}
		for k, ns := range layers {
			byLayer[k] += ns
			total += ns
		}
		tracedS = append(tracedS, r.totalS)
		shared = append(shared, r.sharedS)
		baseline = append(baseline, r.baselineS)
		ledger = append(ledger, r.ledgerS*1000)
		if r.nextTimed > 0 {
			nsPerNext = append(nsPerNext, float64(r.nextTimedNS)/float64(r.nextTimed))
		}
	}
	for _, r := range plain {
		plainS = append(plainS, r.runS)
	}
	known := map[string]bool{}
	for _, p := range selfSharePkgs {
		known[p] = true
	}
	for k, ns := range byLayer {
		if !known[k] {
			byLayer["other"] += ns
		}
	}
	for _, p := range selfSharePkgs {
		if total > 0 {
			v[p+".self_share"] = float64(byLayer[p]) / float64(total)
		}
	}
	last := traced[len(traced)-1]
	res := last.res
	var rowHits, served, migrated uint64
	var mpki, blp float64
	for _, t := range res.Threads {
		rowHits += t.RowHits
		served += t.ReadsServed + t.WritesServed
		migrated += t.PagesMigrated
		mpki += t.MPKI
		blp += t.BLP
	}
	n := float64(len(res.Threads))
	v["trace.ns_per_next"] = median(nsPerNext) - clockOverheadNS()
	v["trace.next_calls"] = float64(last.nextCalls)
	v["sim.baseline_s"] = median(baseline)
	v["sim.shared_s"] = median(shared)
	v["sim.ns_per_simcycle"] = median(shared) * 1e9 / float64(last.cycles)
	v["sim.skipped_cycle_share"] = float64(last.skipped) / float64(last.cycles)
	v["obs.ledger_ms"] = median(ledger)
	v["dram.activates"] = float64(res.DRAM.Activates)
	v["dram.reads"] = float64(res.DRAM.Reads)
	v["dram.writes"] = float64(res.DRAM.Writes)
	if served > 0 {
		v["dram.row_hit_rate"] = float64(rowHits) / float64(served)
	}
	v["memctrl.enqueues"] = float64(last.enqueues)
	v["paging.pages_migrated"] = float64(migrated)
	v["core.repartitions"] = float64(res.Repartitions)
	v["sim.migration_drops"] = float64(res.MigrationDrops)
	v["cache.mpki_mean"] = mpki / n
	v["profile.blp_mean"] = blp / n
	v["harness.trace_overhead_share"] = median(tracedS)/median(plainS) - 1
	zeroLayers(v)
	return v
}
