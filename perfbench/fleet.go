package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dbpsim"
)

// fleet-mixed drives the real dbpserved binaries: one journaled
// coordinator and two journaled workers, with an interactive tenant and a
// batch tenant sharing them. Every run is the DBP-TCM point at a tiny
// budget, so serve, fleet, tenant and journal code is most of a request.

// Fleet budgets and load shape.
const (
	fleetWarmup, fleetMeasure = 1_000, 5_000
	// repeatShare is the share of interactive requests that repeat an
	// earlier interactive run (and should be served from some cache). It
	// is an assumption, like the entry split in loadGen.interactive and the
	// sweep overlap in sweepMixes: the repository records no client
	// traffic to derive them from. The traced run reports the hit share
	// the fleet actually saw (serve.cache_hit_ratio).
	repeatShare = 0.75
	// boots is how many times the fleet is started; setup_s is the median.
	// Every boot after the first replays the journals the load wrote.
	boots = 7
	// wsCells is how many first-time interactive runs, in request order,
	// ws and max_slowdown average over. The set depends only on the seed.
	wsCells = 64
	// probeRounds fresh fleets, half before the load and half after it,
	// each serve the same bigProbes cold runs at the probe budget (run_s,
	// sim_mips) and tinyProbes cold runs at the load's budget
	// (cold_p50_ms), one after another. A probe's time is the median of
	// its rounds, spread over the invocation: identical work on this host
	// runs faster and slower by turns, and the fastest round spread two
	// to three times as much from run to run as the median did. Each
	// round uses a fresh fleet because a run's cost also depends on what
	// the seed's load left in the daemons (up to 25% for the same cells).
	probeRounds               = 4
	bigProbes, tinyProbes     = 6, 20
	probeWarmup, probeMeasure = 20_000, 100_000
	// refSample is how many sweep cells and interactive cells are replayed
	// on a standalone single-node daemon as the fleet ≡ single-node check.
	refSample = 2
)

// fleetMixes are the 4-core mixes batch sweeps cover. Interactive runs all
// use interactiveMix, varying only the seed: runs of different mixes differ
// in cost several-fold, and a median over a mixture of them would jump
// between modes.
var fleetMixes = []string{"W4-L1", "W4-M1", "W4-M2", "W4-H1"}

const interactiveMix = "W4-M1"

const (
	interactiveKey = "perfbench-interactive"
	batchKey       = "perfbench-batch"
)

// tenantsFile gives both tenants quotas this load never reaches: admission
// control runs on every request but never refuses one.
const tenantsFile = `{"schema_version": 1, "tenants": [
 {"name": "interactive", "key": "perfbench-interactive", "lane": "interactive", "weight": 2, "cells_per_sec": 100000, "simcycles_per_sec": 1e15},
 {"name": "batch", "key": "perfbench-batch", "lane": "batch", "weight": 1, "cells_per_sec": 100000, "simcycles_per_sec": 1e15}
]}
`

// cell is one run identity: a mix and a seed at the load's budget, or at
// the probe budget when big.
type cell struct {
	Mix  string
	Seed int64
	Big  bool
}

func (c cell) request() dbpsim.RunRequest {
	w, m := uint64(fleetWarmup), uint64(fleetMeasure)
	if c.Big {
		w, m = probeWarmup, probeMeasure
	}
	seed := c.Seed
	return dbpsim.RunRequest{Mix: c.Mix, Scheduler: "tcm", Partition: "dbp", Warmup: &w, Measure: m, Seed: &seed}
}

func (c cell) String() string { return c.Mix + "/" + strconv.FormatInt(c.Seed, 10) }

// daemon is one running dbpserved process.
type daemon struct {
	name string
	cmd  *exec.Cmd
	url  string
	done chan struct{}
	log  *os.File
}

// startDaemon launches dbpserved on a free loopback port and waits until it
// has written its bound address.
func startDaemon(bin, dir, name string, args ...string) (*daemon, error) {
	addrFile := filepath.Join(dir, name+".addr")
	_ = os.Remove(addrFile)
	logf, err := os.OpenFile(filepath.Join(dir, name+".log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append(args, "-addr", "127.0.0.1:0", "-addr-file", addrFile)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// Three daemons share the host: each gets one P, as each would get
	// one CPU in a deployment, instead of sizing its scheduler and GC
	// for the whole machine.
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	d := &daemon{name: name, cmd: cmd, done: make(chan struct{}), log: logf}
	go func() {
		_ = cmd.Wait()
		close(d.done)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			d.url = "http://" + strings.TrimSpace(string(b))
			return d, nil
		}
		select {
		case <-d.done:
			logf.Close()
			return nil, fmt.Errorf("%s exited during start-up (see %s)", name, logf.Name())
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("%s did not bind within 30s", name)
		}
	}
}

// stop drains the daemon with SIGTERM, kills it if the drain stalls, and
// waits for the process to exit.
func (d *daemon) stop() {
	if d == nil {
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
	d.log.Close()
}

// fleet is one coordinator and its two workers.
type fleet struct {
	coord, w1, w2 *daemon
}

func (f *fleet) daemons() []*daemon { return []*daemon{f.coord, f.w1, f.w2} }

func (f *fleet) stop() {
	if f == nil {
		return
	}
	f.w1.stop()
	f.w2.stop()
	f.coord.stop()
}

// bootFleet starts the coordinator and both workers over the journals in
// dir and returns once the coordinator reports both workers live. The
// returned duration is set-up time: the CPU time the three daemons used
// from launch until every worker was live, journal replay included.
func bootFleet(bin, dir string, hc *http.Client) (*fleet, time.Duration, error) {
	tenants := filepath.Join(dir, "tenants.json")
	f := &fleet{}
	var err error
	f.coord, err = startDaemon(bin, dir, "coord", "-coordinator", "-journal-dir", filepath.Join(dir, "coord-journal"), "-tenants", tenants)
	if err != nil {
		return nil, 0, err
	}
	worker := func(id string) (*daemon, error) {
		return startDaemon(bin, dir, id, "-join", f.coord.url, "-worker-id", id, "-workers", "1",
			"-journal-dir", filepath.Join(dir, id+"-journal"), "-tenants", tenants)
	}
	if f.w1, err = worker("w1"); err == nil {
		f.w2, err = worker("w2")
	}
	if err != nil {
		f.stop()
		return nil, 0, err
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		var h struct {
			WorkersLive int `json:"workers_live"`
		}
		if err := getJSON(hc, f.coord.url+"/healthz", &h); err == nil && h.WorkersLive == 2 {
			cpu, err := daemonCPU(f.daemons()...)
			if err != nil {
				f.stop()
				return nil, 0, err
			}
			return f, cpu, nil
		}
		if time.Now().After(deadline) {
			f.stop()
			return nil, 0, errors.New("workers did not go live within 30s")
		}
		// Each poll costs the coordinator CPU that counts in set-up time;
		// 10 ms keeps it to a handful of polls per boot.
		time.Sleep(10 * time.Millisecond)
	}
}

func getJSON(hc *http.Client, url string, v any) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func getText(hc *http.Client, url string) (string, error) {
	resp, err := hc.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return string(b), nil
}

// loadGen is the seeded input sequence. The closed loop consumes a prefix
// of it whose length depends on speed; the sequence itself depends only on
// the seed.
type loadGen struct {
	seed    int64
	rng     *rand.Rand
	history []cell
}

func newLoadGen(seed int64) *loadGen {
	return &loadGen{seed: seed, rng: rand.New(rand.NewSource(seed))}
}

// cellSeed maps the benchmark seed and a stream-local counter to a run
// seed; the streams use disjoint ranges.
func cellSeed(seed int64, stream, n int64) int64 { return seed*10_000_000 + stream*1_000_000 + n }

// interactive returns the next interactive request: its cell, the entry
// node (0 coordinator, 1 and 2 the workers) and whether it repeats an
// earlier one. Half the requests enter at the coordinator and a quarter at
// each worker, so every latency percentile reported sits inside one
// routing path's mode rather than on the edge between two.
func (g *loadGen) interactive() (cell, int, bool) {
	entry := 0
	if x := g.rng.Float64(); x >= 0.75 {
		entry = 2
	} else if x >= 0.5 {
		entry = 1
	}
	if len(g.history) > 0 && g.rng.Float64() < repeatShare {
		return g.history[g.rng.Intn(len(g.history))], entry, true
	}
	c := cell{Mix: interactiveMix, Seed: cellSeed(g.seed, 1, int64(len(g.history)))}
	g.history = append(g.history, c)
	return c, entry, false
}

// sweepMixes and sweepSeed give the n-th batch sweep. Sweeps come in pairs
// sharing a seed: the first covers L1, M1, M2 and the second M1, M2, H1, so
// the second repeats two cells of the first and adds one.
func sweepMixes(n int) []string {
	if n%2 == 0 {
		return fleetMixes[:3]
	}
	return fleetMixes[1:]
}

func sweepSeed(seed int64, n int) int64 { return cellSeed(seed, 2, int64(n/2)) }

// fleetRun is one fleet-mixed invocation: the fleet, the two tenant
// connection pools, and everything the run observed.
type fleetRun struct {
	opt     options
	dir     string
	f       *fleet
	hc      *http.Client // interactive stream and checks
	hcBatch *http.Client // batch stream
	tr      *tracer
	gen     *loadGen

	hashes    map[cell]string // first ledger sha256 seen per cell
	sweepSHA  map[cell]string // ledger_sha256 per sweep cell
	unique    map[cell]bool   // cells first requested during the load
	checkErr  error
	attempted int64
	failed    int64

	setups []float64 // CPU seconds per boot
	// probeS holds each probe cell's wall seconds, request to ledger, one
	// per round; probeCPU the three daemons' CPU seconds for it.
	probeS, probeCPU map[cell][]float64
	hitMS, coldMS    []float64
	ws, ms           []float64 // from the first wsCells first-time ledgers
	cells            int64
	batchS           float64 // wall seconds of the batch stream
	loadCPU          float64 // daemon CPU seconds over the load
}

func newFleetRun(opt options, dir string) *fleetRun {
	return &fleetRun{
		opt: opt, dir: dir, gen: newLoadGen(opt.seed),
		hc:      &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}},
		hcBatch: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}},
		hashes:  map[cell]string{}, sweepSHA: map[cell]string{}, unique: map[cell]bool{},
		probeS: map[cell][]float64{}, probeCPU: map[cell][]float64{},
	}
}

// close releases the client connection pools.
func (r *fleetRun) close() {
	r.hc.CloseIdleConnections()
	r.hcBatch.CloseIdleConnections()
}

func (r *fleetRun) fail(err error) {
	if r.checkErr == nil {
		r.checkErr = err
	}
}

func (r *fleetRun) client(d *daemon, key string) *dbpsim.Client {
	c := &dbpsim.Client{BaseURL: d.url, APIKey: key, HTTPClient: r.hc, MaxAttempts: 1}
	if key == batchKey {
		c.HTTPClient = r.hcBatch
	}
	return c
}

// observe checks one returned ledger: the first copy of a cell must parse,
// and every later copy must be byte-identical to it. It returns the parsed
// ledger of a first copy.
func (r *fleetRun) observe(c cell, ledger []byte) *dbpsim.Ledger {
	sha := sha256Hex(ledger)
	if prev, ok := r.hashes[c]; ok {
		if prev != sha {
			r.fail(fmt.Errorf("cell %s answered with ledger %s, earlier %s", c, sha, prev))
		}
		return nil
	}
	r.hashes[c] = sha
	led, err := dbpsim.LoadLedgerBytes(ledger)
	if err != nil {
		r.fail(fmt.Errorf("cell %s: %w", c, err))
		return nil
	}
	return &led
}

// boot starts the fleet (the i-th time) and records its set-up time.
func (r *fleetRun) boot(i int) error {
	sp := r.tr.start("boot-"+strconv.Itoa(i), "fleet.boot", 0)
	f, took, err := bootFleet(r.opt.dbpserved, r.dir, r.hc)
	r.tr.end(sp, nil)
	if err != nil {
		return err
	}
	r.f = f
	r.setups = append(r.setups, took.Seconds())
	return nil
}

// probeCells are the probe runs, the same for every workload seed. Their
// seeds lie in streams 3 and 4 of seed 0, which no load request uses, so
// each runs cold, baselines included, on every fresh fleet. The big probes
// are spread evenly among the tiny ones, so that both kinds sample the
// host over the whole round rather than one after the other: the host's
// speed changes from one second to the next.
func probeCells() []cell {
	var cells []cell
	big := 0
	for i := 0; i < tinyProbes; i++ {
		for ; big*tinyProbes < (i+1)*bigProbes; big++ {
			cells = append(cells, cell{Mix: interactiveMix, Seed: cellSeed(0, 3, int64(big)), Big: true})
		}
		cells = append(cells, cell{Mix: interactiveMix, Seed: cellSeed(0, 4, int64(i))})
	}
	return cells
}

// probeRound boots a fresh fleet with empty journals in its own directory,
// sends the probe cells to its idle coordinator one after another, and
// stops it. It records each probe's wall-clock time, from the request to
// the ledger bytes, and the CPU time the three daemons spent on it. On an
// idle fleet the two agree within a few percent; the wall-clock time also
// counts any time a request spends waiting (a forwarding hop, a queue, a
// lock, a poll).
func (r *fleetRun) probeRound(round int) error {
	dir := filepath.Join(r.dir, "probe-"+strconv.Itoa(round))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "tenants.json"), []byte(tenantsFile), 0o644); err != nil {
		return err
	}
	sp := r.tr.start("probe-boot-"+strconv.Itoa(round), "fleet.boot", 0)
	f, _, err := bootFleet(r.opt.dbpserved, dir, r.hc)
	r.tr.end(sp, nil)
	if err != nil {
		return err
	}
	defer f.stop()
	for i, c := range probeCells() {
		sp := r.tr.start(fmt.Sprintf("probe-%d-%d", round, i), "Client.Run", 0)
		before, err := daemonCPU(f.daemons()...)
		if err != nil {
			return err
		}
		t0 := time.Now()
		res, err := r.client(f.coord, interactiveKey).Run(context.Background(), c.request())
		wall := time.Since(t0).Seconds()
		after, cerr := daemonCPU(f.daemons()...)
		r.tr.end(sp, map[string]any{"cell": c.String(), "big": c.Big})
		r.attempted++
		if err != nil {
			r.failed++
			fmt.Fprintln(os.Stderr, "perfbench: probe:", err)
			continue
		}
		if cerr != nil {
			return cerr
		}
		r.observe(c, res.Ledger)
		r.probeS[c] = append(r.probeS[c], wall)
		r.probeCPU[c] = append(r.probeCPU[c], (after - before).Seconds())
	}
	return nil
}

// probeP50 is the median over the big or the tiny probe cells of each
// cell's median round, from probeS or probeCPU.
func probeP50(samples map[cell][]float64, big bool) float64 {
	var xs []float64
	for _, c := range probeCells() {
		if c.Big == big && len(samples[c]) > 0 {
			xs = append(xs, median(samples[c]))
		}
	}
	return median(xs)
}

// batch is the batch tenant's closed loop: one sweep at a time through the
// coordinator until the deadline. It returns the cells delivered and any
// check that failed; it runs on its own goroutine and touches only its
// own state until it returns.
func (r *fleetRun) batch(deadline time.Time, parent int64) (cells, attempted int64, sha map[cell]string, err error) {
	sha = map[cell]string{}
	fail := func(e error) {
		if err == nil {
			err = e
		}
	}
	client := r.client(r.f.coord, batchKey)
	for n := 0; time.Now().Before(deadline); n++ {
		mixes := sweepMixes(n)
		seed := sweepSeed(r.opt.seed, n)
		w := uint64(fleetWarmup)
		req := dbpsim.SweepRequest{Mixes: mixes, Schedulers: []string{"tcm"}, Partitions: []string{"dbp"},
			Warmup: &w, Measure: fleetMeasure, Seed: &seed}
		reqID := "sweep-" + strconv.Itoa(n)
		sp := r.tr.start(reqID, "Client.Sweep", parent)
		done := 0
		sum, serr := client.Sweep(context.Background(), req, func(res dbpsim.SweepResult) error {
			now := time.Now()
			c := cell{Mix: res.Mix, Seed: seed}
			r.tr.add(reqID, "sweep.cell", sp, now.Add(-time.Duration(res.ElapsedMS*float64(time.Millisecond))), now,
				map[string]any{"cell": c.String(), "worker": res.Worker, "cache": res.Cache, "status": res.Status})
			if res.Status != "done" {
				return nil
			}
			done++
			if _, err := dbpsim.LoadLedgerBytes(res.Ledger); err != nil {
				fail(fmt.Errorf("sweep cell %s: %w", c, err))
			}
			if prev, ok := sha[c]; ok && prev != res.LedgerSHA256 {
				fail(fmt.Errorf("sweep cell %s answered with ledger %s, earlier %s", c, res.LedgerSHA256, prev))
			}
			sha[c] = res.LedgerSHA256
			return nil
		})
		r.tr.end(sp, map[string]any{"cells": len(mixes), "done": done})
		attempted += int64(len(mixes))
		cells += int64(done)
		switch {
		case serr != nil:
			fail(fmt.Errorf("sweep %d: %w", n, serr))
		case sum.Cells != len(mixes) || sum.Done != done:
			fail(fmt.Errorf("sweep %d summary reports %d/%d cells done, stream delivered %d", n, sum.Done, sum.Cells, done))
		}
	}
	return cells, attempted, sha, err
}

// interactive is the interactive tenant's closed loop until the deadline.
func (r *fleetRun) interactive(deadline time.Time, parent int64) {
	nodes := r.f.daemons()
	for i := 0; time.Now().Before(deadline); i++ {
		c, entry, repeat := r.gen.interactive()
		reqID := "run-" + strconv.Itoa(i)
		sp := r.tr.start(reqID, "Client.Run", parent)
		t := time.Now()
		res, err := r.client(nodes[entry], interactiveKey).Run(context.Background(), c.request())
		lat := float64(time.Since(t).Nanoseconds()) / 1e6
		attrs := map[string]any{"cell": c.String(), "entry": nodes[entry].name, "repeat": repeat}
		r.attempted++
		if err != nil {
			attrs["error"] = err.Error()
			r.tr.end(sp, attrs)
			r.failed++
			fmt.Fprintln(os.Stderr, "perfbench: interactive run:", err)
			continue
		}
		attrs["cache"] = res.Cache
		r.tr.end(sp, attrs)
		led := r.observe(c, res.Ledger)
		if repeat {
			r.hitMS = append(r.hitMS, lat)
			continue
		}
		r.coldMS = append(r.coldMS, lat)
		r.unique[c] = true
		if led != nil && len(r.ws) < wsCells {
			r.ws = append(r.ws, led.Metrics.WeightedSpeedup)
			r.ms = append(r.ms, led.Metrics.MaxSlowdown)
		}
	}
}

// load runs both tenant streams for the measurement window and returns
// its length in seconds and the CPU seconds the three daemons used in it.
func (r *fleetRun) load() (float64, float64, error) {
	cpu0, err := daemonCPU(r.f.daemons()...)
	if err != nil {
		return 0, 0, err
	}
	sp := r.tr.start("load", "load", 0)
	start := time.Now()
	deadline := start.Add(time.Duration(r.opt.seconds * float64(time.Second)))
	type batchOut struct {
		cells, attempted int64
		sha              map[cell]string
		err              error
		seconds          float64
	}
	ch := make(chan batchOut, 1)
	go func() {
		cells, attempted, sha, err := r.batch(deadline, sp)
		ch <- batchOut{cells, attempted, sha, err, time.Since(start).Seconds()}
	}()
	r.interactive(deadline, sp)
	b := <-ch
	loadS := time.Since(start).Seconds()
	r.tr.end(sp, nil)
	cpu1, err := daemonCPU(r.f.daemons()...)
	if err != nil {
		return 0, 0, err
	}
	r.cells, r.batchS, r.loadCPU = b.cells, b.seconds, (cpu1 - cpu0).Seconds()
	r.attempted += b.attempted
	r.failed += b.attempted - b.cells
	if b.err != nil {
		r.fail(b.err)
	}
	for c, sha := range b.sha {
		r.sweepSHA[c] = sha
		r.unique[c] = true
	}
	return loadS, (cpu1 - cpu0).Seconds(), nil
}

// runFleet runs fleet-mixed: two probe rounds, the load, six restarts over
// the journals, two more probe rounds, then the single-node comparison.
func runFleet(opt options) (outcome, error) {
	out := outcome{values: map[string]float64{}, info: map[string]any{}}
	if _, err := os.Stat(opt.dbpserved); err != nil {
		return out, fmt.Errorf("dbpserved binary: %w", err)
	}
	dir, err := os.MkdirTemp(opt.outDir, fmt.Sprintf("fleet-seed%d-", opt.seed))
	if err != nil {
		return out, err
	}
	if err := os.WriteFile(filepath.Join(dir, "tenants.json"), []byte(tenantsFile), 0o644); err != nil {
		return out, err
	}
	r := newFleetRun(opt, dir)
	defer r.close()
	if opt.trace {
		r.tr = newTracer()
	}
	defer func() { r.f.stop() }()

	for i := 0; i < probeRounds/2; i++ {
		if err := r.probeRound(i); err != nil {
			return out, err
		}
	}
	if err := r.boot(0); err != nil {
		return out, err
	}
	var before []scrape
	journalBefore := journalBytes(dir)
	if opt.trace {
		if before, err = scrapeAll(r.hc, r.f); err != nil {
			return out, err
		}
	}
	loadS, loadCPU, err := r.load()
	if err != nil {
		return out, err
	}

	// Per-layer counters, before the verification traffic below.
	if opt.trace {
		after, err := scrapeAll(r.hc, r.f)
		if err != nil {
			return out, err
		}
		out.values = fleetLayers(before, after, r, float64(journalBytes(dir)-journalBefore))
		out.values["harness.trace_overhead_share"] = r.tr.cost.Seconds() / loadS
		zeroLayers(out.values)
	}
	var peak float64
	for _, d := range r.f.daemons() {
		mb, err := peakRSSMB(strconv.Itoa(d.cmd.Process.Pid))
		if err != nil {
			return out, err
		}
		peak += mb
	}
	if err := r.verifySweepCells(); err != nil {
		r.fail(err)
	}

	// Restart over the journals (set-up with replay); an earlier
	// interactive result must come back byte-identical afterwards.
	for i := 1; i < boots; i++ {
		r.f.stop()
		if err := r.boot(i); err != nil {
			return out, err
		}
	}
	if len(r.gen.history) > 0 {
		c := r.gen.history[0]
		res, err := r.client(r.f.coord, interactiveKey).Run(context.Background(), c.request())
		if err != nil {
			r.fail(fmt.Errorf("replayed fleet: %w", err))
		} else {
			r.observe(c, res.Ledger)
		}
	}
	r.f.stop()
	for i := probeRounds / 2; i < probeRounds; i++ {
		if err := r.probeRound(i); err != nil {
			return out, err
		}
	}
	if err := r.verifySingleNode(); err != nil {
		r.fail(err)
	}
	if len(r.ws) == 0 || len(r.hitMS) == 0 || len(r.probeS) == 0 {
		return out, errors.New("no probe, first-time or repeat interactive request completed")
	}

	out.attempted, out.failed, out.checkErr = r.attempted, r.failed, r.checkErr
	out.info["sweep_cells"] = r.cells
	out.info["interactive_first"] = len(r.coldMS)
	out.info["interactive_repeat"] = len(r.hitMS)
	out.info["load_s"] = loadS
	out.info["ws_cells"] = len(r.ws)
	out.info["load_cpu_s"] = loadCPU
	if !opt.trace {
		mix, _ := dbpsim.MixByName(interactiveMix)
		runS := probeP50(r.probeS, true)
		out.values = map[string]float64{
			"setup_s":      median(r.setups),
			"run_s":        runS,
			"sim_mips":     float64(mix.Cores()*(probeWarmup+probeMeasure)) / runS / 1e6,
			"mem_peak_mb":  peak,
			"ws":           mean(r.ws),
			"max_slowdown": mean(r.ms),
			"cells_per_s":  float64(r.cells) / r.batchS,
			"cold_p50_ms":  probeP50(r.probeS, false) * 1000,
		}
	} else {
		out.values["fleet.cold_cpu_p50_ms"] = probeP50(r.probeCPU, false) * 1000
		path := filepath.Join(opt.outDir, fmt.Sprintf("spans-%s-seed%d.json", opt.workload, opt.seed))
		if err := r.tr.write(path, map[string]any{"host": hostFingerprint(opt.commit, opt.sourceSHA), "workload": opt.workload,
			"seed": opt.seed, "layers": out.values}); err != nil {
			return out, err
		}
		out.info["spans"] = path
	}
	if r.checkErr == nil {
		_ = os.RemoveAll(dir)
	} else {
		out.info["fleet_dir"] = dir
	}
	return out, nil
}

// verifySweepCells posts every distinct sweep cell directly to a worker
// and compares the body's sha256 with the cell's ledger_sha256.
func (r *fleetRun) verifySweepCells() error {
	clients := []*dbpsim.Client{r.client(r.f.w1, batchKey), r.client(r.f.w2, batchKey)}
	cells := make([]cell, 0, len(r.sweepSHA))
	for c := range r.sweepSHA {
		cells = append(cells, c)
	}
	sortCells(cells)
	for i, c := range cells {
		res, err := clients[i%len(clients)].Run(context.Background(), c.request())
		if err != nil {
			return fmt.Errorf("direct run of sweep cell %s: %w", c, err)
		}
		if got := sha256Hex(res.Ledger); got != r.sweepSHA[c] {
			return fmt.Errorf("sweep cell %s: ledger_sha256 %s, direct POST returned %s", c, r.sweepSHA[c], got)
		}
	}
	return nil
}

// verifySingleNode replays a seeded sample of sweep and interactive cells
// on a fresh standalone daemon and compares ledger hashes with the fleet's.
func (r *fleetRun) verifySingleNode() error {
	rng := rand.New(rand.NewSource(r.opt.seed + 1))
	sweep := make([]cell, 0, len(r.sweepSHA))
	for c := range r.sweepSHA {
		sweep = append(sweep, c)
	}
	sortCells(sweep)
	var sample []cell
	for i := 0; i < refSample && len(sweep) > 0; i++ {
		sample = append(sample, sweep[rng.Intn(len(sweep))])
	}
	for i := 0; i < refSample && len(r.gen.history) > 0; i++ {
		sample = append(sample, r.gen.history[rng.Intn(len(r.gen.history))])
	}
	ref, err := startDaemon(r.opt.dbpserved, r.dir, "single")
	if err != nil {
		return err
	}
	defer ref.stop()
	client := &dbpsim.Client{BaseURL: ref.url, HTTPClient: r.hc, MaxAttempts: 1}
	for _, c := range sample {
		res, err := client.Run(context.Background(), c.request())
		if err != nil {
			return fmt.Errorf("single-node run of %s: %w", c, err)
		}
		want, ok := r.sweepSHA[c]
		if !ok {
			want = r.hashes[c]
		}
		if got := sha256Hex(res.Ledger); got != want {
			return fmt.Errorf("cell %s: fleet ledger %s, single node %s", c, want, got)
		}
	}
	return nil
}

func sortCells(cs []cell) {
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].Mix != cs[j].Mix {
			return cs[i].Mix < cs[j].Mix
		}
		return cs[i].Seed < cs[j].Seed
	})
}

// journalBytes is the size of the workers' journal directories.
func journalBytes(dir string) int64 {
	var n int64
	for _, id := range []string{"w1", "w2"} {
		_ = filepath.WalkDir(filepath.Join(dir, id+"-journal"), func(_ string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() {
				if info, err := d.Info(); err == nil {
					n += info.Size()
				}
			}
			return nil
		})
	}
	return n
}
