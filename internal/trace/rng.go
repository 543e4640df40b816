package trace

import "math/rand"

// math/rand's default source is an additive lagged-Fibonacci generator over
// a 607-word register with taps 607 and 273. rng reimplements it as a
// concrete type, so the generators' per-item draws are direct calls instead
// of two interface hops through *rand.Rand and rand.Source.
const (
	rngLen  = 607
	rngTap  = 273
	rngMask = 1<<63 - 1
)

// rng yields exactly the Float64 and Int63n sequences of
// rand.New(rand.NewSource(seed)) for the same seed, so every trace stream
// is math/rand's.
type rng struct {
	tap  int
	feed int
	vec  [rngLen]int64
}

// newRNG recovers the register rand.NewSource(seed) starts from without
// copying Go's seeding table: after rngLen draws both indices are back at
// their starting positions and every register word has been overwritten by
// exactly one draw, so the drawn values are the register at that point.
// Undoing the rngLen steps of vec[feed] += vec[tap] in reverse order then
// gives the seeded register.
func newRNG(seed int64) *rng {
	src := rand.NewSource(seed).(rand.Source64)
	r := &rng{feed: rngLen - rngTap}
	for i := 0; i < rngLen; i++ {
		r.step()
		r.vec[r.feed] = int64(src.Uint64())
	}
	for i := 0; i < rngLen; i++ {
		r.vec[r.feed] -= r.vec[r.tap]
		if r.tap++; r.tap == rngLen {
			r.tap = 0
		}
		if r.feed++; r.feed == rngLen {
			r.feed = 0
		}
	}
	return r
}

// step moves both register indices back one word, as the source's Uint64
// does before each draw.
func (r *rng) step() {
	if r.tap--; r.tap < 0 {
		r.tap += rngLen
	}
	if r.feed--; r.feed < 0 {
		r.feed += rngLen
	}
}

// int63 is rand.Source.Int63.
func (r *rng) int63() int64 {
	r.step()
	x := r.vec[r.feed] + r.vec[r.tap]
	r.vec[r.feed] = x
	return x & rngMask
}

// Float64 is rand.Rand.Float64.
func (r *rng) Float64() float64 {
	for {
		if f := float64(r.int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}

// Int63n is rand.Rand.Int63n: a mask for powers of two, otherwise
// rejection sampling above the largest multiple of n.
func (r *rng) Int63n(n int64) int64 {
	if n <= 0 {
		panic("trace: invalid argument to Int63n")
	}
	if n&(n-1) == 0 {
		return r.int63() & (n - 1)
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := r.int63()
	for v > max {
		v = r.int63()
	}
	return v % n
}
