package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"testing"
	"time"
)

// dbpservedBin is built once by TestMain for the fleet tests.
var dbpservedBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test-")
	if err != nil {
		panic(err)
	}
	dbpservedBin = filepath.Join(dir, "dbpserved")
	cmd := exec.Command("go", "build", "-o", dbpservedBin, "dbpsim/cmd/dbpserved")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		panic("build dbpserved: " + err.Error())
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// benchmarkJSON is the part of ../BENCHMARK.json the self-test checks.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkJSONMatchesMetricTables(t *testing.T) {
	b := loadBenchmarkJSON(t)
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the program runs %d", len(b.Workloads), len(workloads))
	}
	check := func(kind string, declared []metricDef, got []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		if len(declared) != len(got) {
			t.Errorf("%s: program reports %d metrics, BENCHMARK.json names %d", kind, len(declared), len(got))
		}
		want := map[string]string{}
		for _, m := range declared {
			want[m.name] = m.unit
		}
		for _, m := range got {
			if u, ok := want[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s: BENCHMARK.json metric %s [%s], program has [%s] (present %v)", kind, m.Name, m.Unit, u, ok)
			}
		}
	}
	check("end_to_end", endToEnd, b.EndToEnd)
	check("per_layer", perLayer, b.PerLayer)
}

// TestEveryWorkloadPrintsEveryMetric runs each workload at a tiny budget in
// both modes and checks the result line carries every metric BENCHMARK.json
// names, with its unit, and passes its correctness checks.
func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	b := loadBenchmarkJSON(t)
	for _, w := range b.Workloads {
		for _, trace := range []bool{false, true} {
			opt := options{workload: w.Name, seed: 7, seconds: 1, trace: trace, tiny: true,
				dbpserved: dbpservedBin, outDir: t.TempDir()}
			res, _, err := run(opt)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := b.EndToEnd
			if trace {
				want = b.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, want %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s printed=%v unit %q, want %q", w.Name, trace, m.Name, ok, got.Unit, m.Unit)
				}
			}
			line, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			var keys map[string]json.RawMessage
			if err := json.Unmarshal(line, &keys); err != nil || len(keys) != 4 {
				t.Errorf("%s: result line %s does not have exactly four keys", w.Name, line)
			}
		}
	}
}

func TestCorruptedSimLedgerHashFails(t *testing.T) {
	w := &simRun{mix: lightMix(), warmup: tinyWarmup, measure: tinyMeasure}
	w.cfg = defaultConfigFor(w.mix, 3)
	r, err := w.rep()
	if err != nil {
		t.Fatal(err)
	}
	sha := sha256Hex(r.ledger)
	if _, err := checkLedger(r.ledger, sha); err != nil {
		t.Fatalf("intact ledger failed its check: %v", err)
	}
	corrupt := []byte(sha)
	corrupt[0] ^= 1
	if _, err := checkLedger(r.ledger, string(corrupt)); err == nil {
		t.Error("a corrupted ledger hash passed the check")
	}
	if _, err := checkLedger(r.ledger[:len(r.ledger)/2], sha); err == nil {
		t.Error("a truncated ledger passed the check")
	}
}

func TestCorruptedSweepHashFails(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "tenants.json"), []byte(tenantsFile), 0o644); err != nil {
		t.Fatal(err)
	}
	r := newFleetRun(options{seed: 7, dbpserved: dbpservedBin}, dir)
	defer r.close()
	if err := r.boot(0); err != nil {
		t.Fatal(err)
	}
	defer func() { r.f.stop() }()
	cells, _, sha, err := r.batch(time.Now().Add(time.Second), 0)
	if err != nil || cells == 0 {
		t.Fatalf("sweep: %d cells, %v", cells, err)
	}
	r.sweepSHA = sha
	if err := r.verifySweepCells(); err != nil {
		t.Fatalf("intact sweep failed its check: %v", err)
	}
	for c, h := range r.sweepSHA {
		b := []byte(h)
		b[len(b)-1] ^= 1
		r.sweepSHA[c] = string(b)
		break
	}
	if err := r.verifySweepCells(); err == nil {
		t.Error("a corrupted sweep ledger_sha256 passed the check")
	}
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mapaccess2_fast64", "dbpsim/internal/paging.(*PageTable).Translate", "dbpsim/internal/cpu.(*Core).Tick"}, "paging"},
		{[]string{"math/rand.(*Rand).Int63", "dbpsim/internal/trace.(*StreamGen).Next", "main.(*countingGen).Next"}, "trace"},
		{[]string{"time.Now", "main.(*countingGen).Next", "dbpsim/internal/cpu.(*Core).Tick"}, "harness"},
		{[]string{"runtime.gcBgMarkWorker"}, "runtime"},
	} {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

var spinSink uint64

// TestCPUByLayerDecodesProfile profiles a busy loop in this package and
// checks the decoder gives most of its time to the harness layer.
func TestCPUByLayerDecodesProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	x := uint64(1)
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1_000_000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	spinSink = x
	pprof.StopCPUProfile()
	layers, err := cpuByLayer(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, ns := range layers {
		total += ns
	}
	if total == 0 || float64(layers["harness"]) < 0.5*float64(total) {
		t.Errorf("harness got %d of %d ns: %v", layers["harness"], total, layers)
	}
}

func TestSpanSelfTime(t *testing.T) {
	tr := newTracer()
	base := tr.epoch
	at := func(ms int) time.Time { return base.Add(time.Duration(ms) * time.Millisecond) }
	tr.add("r", "parent", 0, at(0), at(100), nil)
	tr.add("r", "child", 1, at(10), at(40), nil)
	tr.add("r", "child", 1, at(30), at(50), nil)  // overlaps the first child
	tr.add("r", "child", 1, at(90), at(120), nil) // runs past the parent
	got := tr.summary()
	if p := got["parent"]; p.Calls != 1 || p.TotalMS != 100 || p.SelfMS != 50 {
		t.Errorf("parent summary %+v, want 1 call, 100 ms total, 50 ms self", p)
	}
	if c := got["child"]; c.Calls != 3 || c.TotalMS != 80 {
		t.Errorf("child summary %+v, want 3 calls, 80 ms total", c)
	}
}
