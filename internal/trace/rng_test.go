package trace

import (
	"math"
	"math/rand"
	"testing"
)

// TestRNGMatchesMathRand checks rng against the generator it replaces:
// interleaved Float64, power-of-two Int63n and rejection-sampled Int63n
// draws must equal rand.New(rand.NewSource(seed))'s, value for value.
func TestRNGMatchesMathRand(t *testing.T) {
	const draws = 120_000
	// Non-power-of-two bounds near 1<<62 reject about a third of raw draws,
	// which keeps the rejection loop and its extra draws in the comparison.
	nonPow2 := []int64{3, 1000, 1<<62 + 1, 6 << 60, math.MaxInt64}
	pow2 := []int64{1, 2, 64, 1 << 20, 1 << 62}
	for _, seed := range []int64{0, 1, -7, 1 << 40, 1009, math.MaxInt64} {
		want := rand.New(rand.NewSource(seed))
		got := newRNG(seed)
		for i := 0; i < draws; i++ {
			switch i % 3 {
			case 0:
				if w, g := want.Float64(), got.Float64(); w != g {
					t.Fatalf("seed %d draw %d: Float64 %v, math/rand %v", seed, i, g, w)
				}
			case 1:
				n := pow2[i%len(pow2)]
				if w, g := want.Int63n(n), got.Int63n(n); w != g {
					t.Fatalf("seed %d draw %d: Int63n(%d) %d, math/rand %d", seed, i, n, g, w)
				}
			default:
				n := nonPow2[i%len(nonPow2)]
				if w, g := want.Int63n(n), got.Int63n(n); w != g {
					t.Fatalf("seed %d draw %d: Int63n(%d) %d, math/rand %d", seed, i, n, g, w)
				}
			}
		}
	}
}

func TestRNGDrawsDoNotAllocate(t *testing.T) {
	r := newRNG(1)
	allocs := testing.AllocsPerRun(1000, func() {
		_ = r.Float64()
		_ = r.Int63n(1 << 10)
		_ = r.Int63n(1000)
	})
	if allocs != 0 {
		t.Fatalf("rng draws allocate %v times per run", allocs)
	}
}
