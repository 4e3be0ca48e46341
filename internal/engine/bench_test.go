package engine

import (
	"sync/atomic"
	"testing"
)

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
			var ctr atomic.Uint64
			b.RunParallel(func(pb *testing.PB) {
				dst := make([]int, 64)
				for pb.Next() {
					if err := e.TakeFrom(nil, int(ctr.Add(1)%8), dst); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}
