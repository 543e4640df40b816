// Command perfbench is the repository benchmark. It runs one workload for a
// fixed wall-clock window, times it mostly in CPU time (see cputime.go), and
// prints, as the last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"run_s": {"value": 12.3, "unit": "s"}, ...}}
//
// With --trace 0 the metrics are the end-to-end set of BENCHMARK.json; with
// --trace 1 they are the per-layer set, measured from spans the benchmark
// records around its own calls into the simulator, counters read through
// public APIs and /metrics, and a CPU profile of the benchmark process.
// The line before the result carries the host fingerprint, the sim ledger
// hash and where the span file was written.
//
// Run it from the repository root through run.sh, which builds the
// simulator and this program from source:
//
//	bash perfbench/run.sh --workload sim-light --seed 1 --seconds 40 --trace 0
//
// See perfbench/README.md for the workloads, the metric definitions and the
// layer-to-metric map.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// options is one benchmark invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// tiny shrinks the sim workloads' budgets so the self-test finishes in
	// seconds. Only the self-test sets it; no flag reaches it.
	tiny bool
	// dbpserved is the daemon binary fleet-mixed launches.
	dbpserved string
	// outDir receives span files and the fleet's scratch directories.
	outDir string
	// commit and sourceSHA identify the source tree the binaries were
	// built from (the commit only inside a git checkout).
	commit, sourceSHA string
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload hands back to main: the metric values (units
// come from the tables in metrics.go), the attempt counts, any failed
// correctness check, and details for the info line.
type outcome struct {
	values    map[string]float64
	attempted int64
	failed    int64
	checkErr  error
	info      map[string]any
}

func main() {
	opt, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, info, err := run(opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	infoLine, _ := json.Marshal(map[string]any{"perfbench": info})
	fmt.Println(string(infoLine))
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encode result:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var opt options
	var trace int
	fs.StringVar(&opt.workload, "workload", "", "workload: sim-light or fleet-mixed")
	fs.Int64Var(&opt.seed, "seed", defaultSeed, "workload seed (held-out seed for gain claims: 1009)")
	fs.Float64Var(&opt.seconds, "seconds", 40, "measurement window in seconds")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	fs.StringVar(&opt.dbpserved, "dbpserved", filepath.Join(".bench_build", "bin", "dbpserved"), "dbpserved binary for fleet-mixed")
	fs.StringVar(&opt.outDir, "out", filepath.Join(".bench_build", "perfbench"), "directory for span files and fleet scratch state")
	fs.StringVar(&opt.commit, "commit", "unknown", "git commit of the source tree, when it is a git checkout")
	fs.StringVar(&opt.sourceSHA, "source-sha", "unknown", "hash of the source tree the binaries were built from")
	if err := fs.Parse(args); err != nil {
		return opt, err
	}
	if fs.NArg() != 0 {
		return opt, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if _, ok := workloads[opt.workload]; !ok {
		return opt, fmt.Errorf("unknown --workload %q (want sim-light or fleet-mixed)", opt.workload)
	}
	if trace != 0 && trace != 1 {
		return opt, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if opt.seconds <= 0 {
		return opt, errors.New("--seconds must be positive")
	}
	opt.trace = trace == 1
	return opt, nil
}

// defaultSeed is the workload seed the benchmark uses unless told
// otherwise; README.md also names the held-out seed.
const defaultSeed = 1

// workloads maps each --workload name to its runner.
var workloads = map[string]func(options) (outcome, error){
	"sim-light":   func(o options) (outcome, error) { return runSim(o, lightMix()) },
	"fleet-mixed": runFleet,
}

// run executes one workload and assembles the result line. An error means
// the benchmark could not run at all; a failed correctness check instead
// yields a result with Correct false.
func run(opt options) (result, map[string]any, error) {
	if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
		return result{}, nil, err
	}
	start := time.Now()
	total0, steal0, statOK := hostCPUTicks()
	out, err := workloads[opt.workload](opt)
	if err != nil {
		return result{}, nil, fmt.Errorf("%s: %w", opt.workload, err)
	}
	names := endToEnd
	if opt.trace {
		names = perLayer
	}
	res := result{Correct: out.checkErr == nil, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{}}
	for _, m := range names {
		v, ok := out.values[m.name]
		if !ok {
			return result{}, nil, fmt.Errorf("%s: metric %s was not measured", opt.workload, m.name)
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	info := map[string]any{
		"workload": opt.workload,
		"seed":     opt.seed,
		"trace":    opt.trace,
		"wall_s":   time.Since(start).Seconds(),
		"host":     hostFingerprint(opt.commit, opt.sourceSHA),
		"details":  out.info,
	}
	// The share of the host's CPU time the hypervisor gave to other
	// tenants during the run: a high figure marks a run taken while the
	// host was contended, whose timings are slow for that reason.
	if total1, steal1, ok := hostCPUTicks(); ok && statOK && total1 > total0 {
		info["host_steal_share"] = float64(steal1-steal0) / float64(total1-total0)
	}
	if out.checkErr != nil {
		info["check_failed"] = out.checkErr.Error()
		fmt.Fprintln(os.Stderr, "perfbench: correctness check failed:", out.checkErr)
	}
	return res, info, nil
}
