package engine

import (
	"sync/atomic"
	"testing"
)

// BenchmarkPickerStriped vs BenchmarkPickerAtomic is the satellite
// measurement for the striped round-robin: the old single atomic
// counter bounces one cacheline between every core, the striped picker
// advances per-P counters.  Run with -cpu 1,4,16 to see the crossover;
// single-threaded the atomic wins (no pool round trip), under
// parallelism the stripe wins by avoiding coherence traffic.
func BenchmarkPickerStriped(b *testing.B) {
	p := NewPicker(16)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			_ = p.Pick()
		}
	})
}

func BenchmarkPickerAtomic(b *testing.B) {
	var ctr atomic.Uint64
	n := uint64(16)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			_ = ctr.Add(1) % n
		}
	})
}

// benchFill simulates a moderately expensive refill (a compiled σ=2
// circuit evaluation costs a few microseconds per 64-sample batch).
func benchFill(s int, dst []int) {
	acc := s
	for i := range dst {
		acc = acc*1664525 + 1013904223
		dst[i] = acc
	}
}

// BenchmarkEngineTake compares the synchronous and asynchronous refill
// modes under parallel consumers.
func BenchmarkEngineTake(b *testing.B) {
	for _, tc := range []struct {
		name  string
		depth int
	}{{"sync", 0}, {"async-d2", 2}, {"async-d8", 8}} {
		b.Run(tc.name, func(b *testing.B) {
			e := New(Config{Shards: 8, SlotSize: 512, Depth: tc.depth}, benchFill)
			defer e.Close()
			p := NewPicker(8)
			b.RunParallel(func(pb *testing.PB) {
				dst := make([]int, 64)
				for pb.Next() {
					if err := e.TakeFrom(nil, p.Pick(), dst); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}
