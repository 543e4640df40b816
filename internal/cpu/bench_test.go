package cpu

import (
	"testing"

	"dbpsim/internal/addr"
	"dbpsim/internal/cache"
	"dbpsim/internal/paging"
	"dbpsim/internal/workload"
)

// benchLightMix is the eight light and medium benchmarks of the sim-light
// benchmark workload.
var benchLightMix = []string{
	"gobmk-like", "calculix-like", "povray-like", "h264-like",
	"gcc-like", "cactus-like", "zeusmp-like", "astar-like",
}

// latencyMem accepts every request and completes each demand read a fixed
// number of ticks later, reusing its queue so steady state never allocates.
type latencyMem struct {
	latency uint64
	now     uint64
	core    *Core
	queue   []pendingMiss
}

type pendingMiss struct{ at, tag uint64 }

func (m *latencyMem) Submit(_ int, _ uint64, _, demand bool, tag uint64) bool {
	if demand {
		m.queue = append(m.queue, pendingMiss{m.now + m.latency, tag})
	}
	return true
}

// tick completes the demand reads due now; the queue is in issue order and
// every read has the same latency, so they are due in order.
func (m *latencyMem) tick() {
	m.now++
	n := 0
	for n < len(m.queue) && m.queue[n].at <= m.now {
		m.core.DemandDone(m.queue[n].tag)
		n++
	}
	if n > 0 {
		m.queue = m.queue[:copy(m.queue, m.queue[n:])]
	}
}

// BenchmarkCoreTick times Core.Tick on every cycle (no cycle skipping) for
// cores running the sim-light mix over real page tables and the paper's
// L1/L2, with a fixed 200-cycle memory latency standing in for DRAM. One op
// ticks each of the eight cores once.
func BenchmarkCoreTick(b *testing.B) {
	mapper := addr.NewMapper(addr.DefaultGeometry())
	alloc := paging.NewAllocator(mapper)
	var cores []*Core
	var mems []*latencyMem
	for i, name := range benchLightMix {
		spec, ok := workload.ByName(name)
		if !ok {
			b.Fatalf("unknown benchmark %s", name)
		}
		hier, err := cache.NewHierarchy(
			cache.Config{Name: "L1D", SizeBytes: 32 << 10, Ways: 8, LineBytes: 64},
			cache.Config{Name: "L2", SizeBytes: 512 << 10, Ways: 16, LineBytes: 64},
		)
		if err != nil {
			b.Fatal(err)
		}
		mem := &latencyMem{latency: 200, queue: make([]pendingMiss, 0, 64)}
		c, err := New(i, DefaultConfig(), spec.New(int64(i)), paging.NewPageTable(mapper, alloc), hier, mem)
		if err != nil {
			b.Fatal(err)
		}
		mem.core = c
		cores = append(cores, c)
		mems = append(mems, mem)
	}
	tick := func() {
		for i, c := range cores {
			if err := c.Tick(); err != nil {
				b.Fatal(err)
			}
			mems[i].tick()
		}
	}
	// Warm the caches and page tables past first-touch faults.
	for i := 0; i < 50_000; i++ {
		tick()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tick()
	}
}
