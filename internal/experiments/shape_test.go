package experiments

import (
	"sync"
	"testing"

	"dbpsim/internal/sim"
	"dbpsim/internal/workload"
)

// TestPaperShape is the reproduction's regression guard: it asserts the
// paper's qualitative orderings on one medium mix at evaluation budgets.
// Skipped under -short (it runs several full-length simulations).
func TestPaperShape(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-shape regression needs full-length runs")
	}
	e := sim.NewExperiment(sim.DefaultConfig(8), 200_000, 400_000)
	mix, _ := workload.MixByName("W8-M1")

	// The six policy runs are independent: they run concurrently on the
	// one experiment, whose alone-baseline cache is mutex-guarded, and each
	// run is deterministic, so the figures match a sequential run exactly.
	policies := [...]struct {
		s sim.SchedulerKind
		p sim.PartitionKind
	}{
		{sim.SchedFRFCFS, sim.PartNone},
		{sim.SchedFRFCFS, sim.PartEqual},
		{sim.SchedFRFCFS, sim.PartDBP},
		{sim.SchedTCM, sim.PartNone},
		{sim.SchedTCM, sim.PartDBP},
		{sim.SchedFRFCFS, sim.PartMCP},
	}
	var ws, ms [len(policies)]float64
	var wg sync.WaitGroup
	for i := range policies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, p := policies[i].s, policies[i].p
			r, err := e.RunMixRecorded(mix, s, p, nil)
			if err != nil {
				t.Errorf("%s/%s: %v", s, p, err)
				return
			}
			ws[i], ms[i] = r.Metrics.WeightedSpeedup, r.Metrics.MaxSlowdown
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	frWS, frMS := ws[0], ms[0]
	eqWS, eqMS := ws[1], ms[1]
	dbpWS, dbpMS := ws[2], ms[2]
	tcmWS, tcmMS := ws[3], ms[3]
	comboWS, comboMS := ws[4], ms[4]
	mcpWS, mcpMS := ws[5], ms[5]

	t.Logf("FRFCFS %.3f/%.3f EqualBP %.3f/%.3f DBP %.3f/%.3f TCM %.3f/%.3f DBP-TCM %.3f/%.3f MCP %.3f/%.3f",
		frWS, frMS, eqWS, eqMS, dbpWS, dbpMS, tcmWS, tcmMS, comboWS, comboMS, mcpWS, mcpMS)

	// Abstract claim 1: DBP beats equal bank partitioning on both metrics.
	if dbpWS <= eqWS {
		t.Errorf("DBP WS %.3f not above EqualBP %.3f", dbpWS, eqWS)
	}
	if dbpMS >= eqMS {
		t.Errorf("DBP MS %.3f not below EqualBP %.3f", dbpMS, eqMS)
	}
	// Abstract claim 2: DBP-TCM beats TCM on both metrics.
	if comboWS <= tcmWS {
		t.Errorf("DBP-TCM WS %.3f not above TCM %.3f", comboWS, tcmWS)
	}
	if comboMS >= tcmMS {
		t.Errorf("DBP-TCM MS %.3f not below TCM %.3f", comboMS, tcmMS)
	}
	// Abstract claim 3: DBP-TCM beats MCP on both metrics, with a large
	// fairness margin (the paper reports +37%).
	if comboWS <= mcpWS {
		t.Errorf("DBP-TCM WS %.3f not above MCP %.3f", comboWS, mcpWS)
	}
	if comboMS >= mcpMS*0.9 {
		t.Errorf("DBP-TCM MS %.3f lacks a clear fairness margin over MCP %.3f", comboMS, mcpMS)
	}
	// Motivation: partitioning changes fairness relative to FR-FCFS; the
	// combined scheme must not be less fair than the unmanaged baseline.
	if comboMS > frMS*1.05 {
		t.Errorf("DBP-TCM MS %.3f worse than unmanaged FR-FCFS %.3f", comboMS, frMS)
	}
}
