package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// metricDef names one reported metric and its unit. The two tables below
// are the benchmark's contract with BENCHMARK.json; the self-test checks
// they agree.
type metricDef struct {
	name string
	unit string
}

// endToEnd is the --trace 0 metric set.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"sim_mips", "Minstr/s"},
	{"mem_peak_mb", "MB"},
	{"ws", "ratio"},
	{"max_slowdown", "ratio"},
	{"cells_per_s", "1/s"},
	{"cold_p50_ms", "ms"},
}

// selfSharePkgs are the internal/<pkg> layers whose share of the shared
// simulation's CPU time the traced sim run reports. "runtime" collects the
// samples with no simulator frame on the stack (background GC, scheduler);
// "harness" the benchmark's own wrappers; "other" every remaining package.
var selfSharePkgs = []string{
	"cpu", "cache", "paging", "trace", "memctrl", "sched", "dram",
	"profile", "core", "addr", "sim", "obs", "runtime", "harness", "other",
}

// perLayer is the --trace 1 metric set.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, p := range selfSharePkgs {
		defs = append(defs, metricDef{p + ".self_share", "share"})
	}
	return append(defs, []metricDef{
		{"trace.ns_per_next", "ns"},
		{"trace.next_calls", "count"},
		{"sim.baseline_s", "s"},
		{"sim.shared_s", "s"},
		{"sim.ns_per_simcycle", "ns"},
		{"sim.skipped_cycle_share", "share"},
		{"obs.ledger_ms", "ms"},
		{"dram.activates", "count"},
		{"dram.reads", "count"},
		{"dram.writes", "count"},
		{"dram.row_hit_rate", "share"},
		{"memctrl.enqueues", "count"},
		{"paging.pages_migrated", "count"},
		{"core.repartitions", "count"},
		{"sim.migration_drops", "count"},
		{"cache.mpki_mean", "MPKI"},
		{"profile.blp_mean", "banks"},
		{"serve.cache_hit_ratio", "share"},
		{"serve.coalesced", "count"},
		{"serve.runs_executed", "count"},
		{"serve.exec_per_unique", "ratio"},
		{"serve.run_s_p50", "s"},
		{"serve.queue_wait_p50_ms.interactive", "ms"},
		{"serve.queue_wait_p50_ms.batch", "ms"},
		{"serve.journal_bytes", "B"},
		{"serve.checkpoints_written", "count"},
		{"serve.rejected", "count"},
		{"fleet.forwards", "count"},
		{"fleet.peer_cache_hits", "count"},
		{"fleet.peer_cache_misses", "count"},
		{"fleet.forward_errors", "count"},
		{"fleet.baseline_imports", "count"},
		{"fleet.cell_p50_ms", "ms"},
		{"fleet.hit_p50_ms", "ms"},
		{"fleet.hit_p99_ms", "ms"},
		{"fleet.first_p50_ms", "ms"},
		{"fleet.cells_per_cpu_s", "1/s"},
		{"fleet.cold_cpu_p50_ms", "ms"},
		{"tenant.quota_rejections", "count"},
		{"harness.trace_overhead_share", "share"},
	}...)
}()

// zeroLayers sets every per-layer metric the workload did not measure to
// 0, so every traced result carries the full table. README.md says which
// rows each workload measures.
func zeroLayers(values map[string]float64) {
	for _, m := range perLayer {
		if _, ok := values[m.name]; !ok {
			values[m.name] = 0
		}
	}
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 { return sum(xs) / float64(len(xs)) }

// peakRSSMB reads a process's peak resident set (VmHWM) in MiB.
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, sc.Err()
}

// hostCPUTicks reads the first line of /proc/stat: the host-wide CPU time
// in clock ticks, in total and stolen by the hypervisor. ok is false where
// it cannot be read.
func hostCPUTicks() (total, steal uint64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i, s := range f[1:] {
		n, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; guest is inside user
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return total, steal, true
}

// hostFingerprint identifies where and from what a number was measured, so
// a result from another machine or tree is never mistaken for evidence.
func hostFingerprint(commit, sourceSHA string) map[string]any {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"cpu_model":  cpu,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"commit":     commit,
		"source_sha": sourceSHA,
	}
}
