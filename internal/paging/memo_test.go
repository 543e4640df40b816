package paging

import (
	"math/rand"
	"testing"
)

// TestTranslateMemoMatchesReference drives seeded random interleavings of
// Translate, SetMask, Migrate, Rebalance and Snapshot→Restore, and checks
// every translation against a memo-free reference map of the table's
// mappings. The reference is rebuilt from the serialised entries after each
// operation that may remap a page, so a memo that outlives a remap shows up
// as a Translate result that disagrees with it.
func TestTranslateMemoMatchesReference(t *testing.T) {
	const pages = 24
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := testMapper()
		colors := m.Geometry().NumColors()
		pageBytes := uint64(m.Geometry().PageBytes())
		alloc := NewAllocator(m)
		pt := NewPageTable(m, alloc)
		ref := make(map[uint64]uint64) // vpn → pfn
		resync := func() {
			ref = make(map[uint64]uint64)
			for vpn, pfn := range pt.Snapshot().Entries {
				ref[vpn] = pfn
			}
		}
		var (
			savedPT    PageTableState
			savedAlloc AllocatorState
			saved      bool
		)
		// The previous access's page: repeating it is what hits the memo.
		vpn := uint64(0)
		for op := 0; op < 2000; op++ {
			switch r := rng.Intn(100); {
			case r < 70:
				if rng.Intn(3) > 0 {
					vpn = uint64(rng.Intn(pages))
				}
				off := uint64(rng.Int63n(int64(pageBytes)))
				paddr, allocated, err := pt.Translate(vpn*pageBytes + off)
				if err != nil {
					t.Fatalf("seed %d op %d: translate: %v", seed, op, err)
				}
				if paddr&(pageBytes-1) != off {
					t.Fatalf("seed %d op %d: offset %#x became %#x", seed, op, off, paddr&(pageBytes-1))
				}
				pfn := paddr >> m.PageShift()
				want, mapped := ref[vpn]
				if allocated == mapped {
					t.Fatalf("seed %d op %d: vpn %d allocated=%v but reference mapped=%v", seed, op, vpn, allocated, mapped)
				}
				if mapped && pfn != want {
					t.Fatalf("seed %d op %d: vpn %d translated to pfn %d, reference has %d", seed, op, vpn, pfn, want)
				}
				ref[vpn] = pfn
			case r < 78:
				mask := NewColorSet(colors)
				for c := 0; c < colors; c++ {
					if rng.Intn(3) == 0 {
						mask.Add(c)
					}
				}
				if mask.Empty() {
					mask.Add(rng.Intn(colors))
				}
				if err := pt.SetMask(mask); err != nil {
					t.Fatalf("seed %d op %d: %v", seed, op, err)
				}
			case r < 85:
				pt.Migrate(1 + rng.Intn(6))
				resync()
			case r < 92:
				pt.Rebalance(1 + rng.Intn(6))
				resync()
			case r < 96:
				savedPT, savedAlloc, saved = pt.Snapshot(), alloc.Snapshot(), true
			default:
				if !saved {
					continue
				}
				if err := alloc.Restore(savedAlloc); err != nil {
					t.Fatalf("seed %d op %d: %v", seed, op, err)
				}
				if err := pt.Restore(savedPT); err != nil {
					t.Fatalf("seed %d op %d: %v", seed, op, err)
				}
				resync()
			}
		}
	}
}

func TestTranslateMemoHitDoesNotAllocate(t *testing.T) {
	m := testMapper()
	pt := NewPageTable(m, NewAllocator(m))
	if _, _, err := pt.Translate(0x1234); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, _, err := pt.Translate(0x1240); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("memo-hit Translate allocates %v times per call", allocs)
	}
}

// BenchmarkPageTableTranslate times Translate once every page is mapped:
// "memo" repeats one page (the last-translation memo answers), "map" cycles
// through 64 pages so every call misses the memo and hits the entries map.
func BenchmarkPageTableTranslate(b *testing.B) {
	m := testMapper()
	pageBytes := uint64(m.Geometry().PageBytes())
	for _, tc := range []struct {
		name  string
		pages uint64
	}{{"memo", 1}, {"map", 64}} {
		b.Run(tc.name, func(b *testing.B) {
			pt := NewPageTable(m, NewAllocator(m))
			for p := uint64(0); p < tc.pages; p++ {
				if _, _, err := pt.Translate(p * pageBytes); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				vaddr := uint64(i)%tc.pages*pageBytes + 64
				if _, _, err := pt.Translate(vaddr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
