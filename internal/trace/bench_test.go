package trace

import "testing"

// BenchmarkTraceNext times one Next call per generator kind, at the shapes
// the benchmark suite uses (a 64-byte stride, eight streams, a 16 MiB
// working set).
func BenchmarkTraceNext(b *testing.B) {
	cfg := Config{MemRatio: 0.35, WriteFrac: 0.2, WorkingSetBytes: 16 << 20, BaseAddr: 1 << 30}
	hot := Config{MemRatio: 0.35, WorkingSetBytes: 16 << 10}
	for _, tc := range []struct {
		name string
		gen  func() Generator
	}{
		{"stream", func() Generator { return NewStream(cfg, 8, 64, 1) }},
		{"random", func() Generator { return NewRandom(cfg, 1) }},
		{"chase", func() Generator { return NewChase(cfg, 1) }},
		{"mix", func() Generator {
			return NewMix([]Weighted{
				{Gen: NewStream(hot, 1, 64, 2), Weight: 0.99},
				{Gen: NewRandom(cfg, 3), Weight: 0.01, Burst: 2},
			}, 4)
		}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			g := tc.gen()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.Next()
			}
		})
	}
}
