package main

import (
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// series is one sample line of a Prometheus text exposition page.
type series struct {
	name   string
	labels map[string]string
	value  float64
}

// scrape is one daemon's /metrics page.
type scrape struct {
	role   string // "coord" or "worker"
	series []series
}

func parseProm(text string) []series {
	var out []series
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		s := series{name: line[:sp], labels: map[string]string{}, value: v}
		if i := strings.IndexByte(s.name, '{'); i >= 0 {
			for _, kv := range strings.Split(strings.TrimSuffix(s.name[i+1:], "}"), ",") {
				if k, val, ok := strings.Cut(kv, "="); ok {
					s.labels[k] = strings.Trim(val, `"`)
				}
			}
			s.name = s.name[:i]
		}
		out = append(out, s)
	}
	return out
}

func scrapeAll(hc *http.Client, f *fleet) ([]scrape, error) {
	var out []scrape
	for _, d := range f.daemons() {
		text, err := getText(hc, d.url+"/metrics")
		if err != nil {
			return nil, err
		}
		role := "worker"
		if d == f.coord {
			role = "coord"
		}
		out = append(out, scrape{role: role, series: parseProm(text)})
	}
	return out, nil
}

// matches reports whether s carries every label in want.
func (s series) matches(want map[string]string) bool {
	for k, v := range want {
		if s.labels[k] != v {
			return false
		}
	}
	return true
}

// familySum adds every series of the family across the scrapes of one role.
func familySum(ss []scrape, role, name string, want map[string]string) float64 {
	var t float64
	for _, sc := range ss {
		if sc.role != role {
			continue
		}
		for _, s := range sc.series {
			if s.name == name && s.matches(want) {
				t += s.value
			}
		}
	}
	return t
}

// delta is a counter family's growth between two scrape sets.
func delta(before, after []scrape, role, name string, want map[string]string) float64 {
	return familySum(after, role, name, want) - familySum(before, role, name, want)
}

// histQuantile estimates the q-quantile of the observations a histogram
// family gained between the scrapes, interpolating linearly inside the
// bucket that holds it (as Prometheus' histogram_quantile does). It
// returns 0 when nothing was observed.
func histQuantile(before, after []scrape, role, name string, want map[string]string, q float64) float64 {
	counts := map[float64]float64{}
	for i, set := range [][]scrape{before, after} {
		sign := 1.0
		if i == 0 {
			sign = -1
		}
		for _, sc := range set {
			if sc.role != role {
				continue
			}
			for _, s := range sc.series {
				if s.name != name+"_bucket" || !s.matches(want) {
					continue
				}
				le, err := strconv.ParseFloat(s.labels["le"], 64)
				if s.labels["le"] == "+Inf" {
					le, err = math.Inf(1), nil
				}
				if err == nil {
					counts[le] += sign * s.value
				}
			}
		}
	}
	var bounds []float64
	for b := range counts {
		bounds = append(bounds, b)
	}
	sort.Float64s(bounds)
	if len(bounds) == 0 || counts[bounds[len(bounds)-1]] <= 0 {
		return 0
	}
	rank := q * counts[bounds[len(bounds)-1]]
	prevBound, prevCount := 0.0, 0.0
	for _, b := range bounds {
		c := counts[b]
		if c >= rank && c > prevCount {
			if math.IsInf(b, 1) {
				return prevBound
			}
			return prevBound + (b-prevBound)*(rank-prevCount)/(c-prevCount)
		}
		prevBound, prevCount = b, c
	}
	return prevBound
}

// fleetLayers turns the /metrics deltas over the load into the fleet's
// per-layer metrics.
func fleetLayers(before, after []scrape, r *fleetRun, journalBytes float64) map[string]float64 {
	d := func(role, name string) float64 { return delta(before, after, role, name, nil) }
	hits := d("worker", "dbpserved_cache_hits_total")
	misses := d("worker", "dbpserved_cache_misses_total")
	coalesced := d("worker", "dbpserved_singleflight_coalesced_total")
	executed := d("worker", "dbpserved_runs_executed_total")
	v := map[string]float64{
		"serve.coalesced":                     coalesced,
		"serve.runs_executed":                 executed,
		"serve.run_s_p50":                     histQuantile(before, after, "worker", "dbpserved_run_seconds", nil, 0.5),
		"serve.queue_wait_p50_ms.interactive": 1000 * histQuantile(before, after, "worker", "dbpserved_queue_wait_seconds", map[string]string{"lane": "interactive"}, 0.5),
		"serve.queue_wait_p50_ms.batch":       1000 * histQuantile(before, after, "worker", "dbpserved_queue_wait_seconds", map[string]string{"lane": "batch"}, 0.5),
		"serve.journal_bytes":                 journalBytes,
		"serve.checkpoints_written":           d("worker", "dbpserved_checkpoints_written_total"),
		"serve.rejected":                      d("worker", "dbpserved_rejected_total"),
		"fleet.forwards":                      d("worker", "dbpfleet_forwards_total"),
		"fleet.peer_cache_hits":               d("worker", "dbpfleet_peer_cache_hits_total"),
		"fleet.peer_cache_misses":             d("worker", "dbpfleet_peer_cache_misses_total"),
		"fleet.forward_errors":                d("worker", "dbpfleet_forward_errors_total"),
		"fleet.baseline_imports":              d("worker", "dbpfleet_baseline_imports_total"),
		"fleet.cell_p50_ms":                   1000 * histQuantile(before, after, "coord", "dbpfleet_sweep_cell_seconds", nil, 0.5),
		"tenant.quota_rejections":             d("coord", "dbpfleet_quota_rejections_total") + d("worker", "dbpserved_quota_rejections_total"),
	}
	if total := hits + misses + coalesced; total > 0 {
		v["serve.cache_hit_ratio"] = hits / total
	}
	if len(r.unique) > 0 {
		v["serve.exec_per_unique"] = executed / float64(len(r.unique))
	}
	if len(r.hitMS) > 0 {
		v["fleet.hit_p50_ms"] = quantile(r.hitMS, 0.5)
		v["fleet.hit_p99_ms"] = quantile(r.hitMS, 0.99)
	}
	if len(r.coldMS) > 0 {
		v["fleet.first_p50_ms"] = median(r.coldMS)
	}
	if r.loadCPU > 0 {
		v["fleet.cells_per_cpu_s"] = float64(r.cells) / r.loadCPU
	}
	return v
}
