package convolve

import (
	"fmt"
	"sync"
	"testing"
)

// benchSampler builds (once) a single-shard sampler over the σ=2 base
// only, so benchmark setup stays cheap while still exercising multi-term
// ladders (σ > 2 convolves several σ=2 draws).
var (
	benchOnce sync.Once
	benchS    *Sampler
	benchErr  error
)

func benchSampler(b *testing.B) *Sampler {
	b.Helper()
	benchOnce.Do(func() {
		benchS, benchErr = New(Config{Bases: []string{"2"}, Shards: 1, Seed: []byte("bench")})
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchS
}

// BenchmarkArbitraryNextBatch measures the convolved cost per sample at
// several targets (compare against the direct compiled circuit rows of
// BenchmarkTable2Sampler; the gap is the price of serving a σ no circuit
// was built for).
func BenchmarkArbitraryNextBatch(b *testing.B) {
	s := benchSampler(b)
	for _, tc := range []struct{ sigma, mu float64 }{
		{2, 0},
		{3.3, 0.375},
		{17.5, 0},
		{300, -0.5},
	} {
		p, err := s.Plan(tc.sigma)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("sigma=%g,draws=%d", tc.sigma, p.Draws()), func(b *testing.B) {
			dst := make([]int, 1024)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.NextBatch(tc.sigma, tc.mu, dst); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(dst)), "ns/sample")
		})
	}
}

// BenchmarkNextSingle is the Falcon SamplerZ shape: one sample per call
// at a leaf-σ′-style request.
func BenchmarkNextSingle(b *testing.B) {
	s := benchSampler(b)
	for i := 0; i < b.N; i++ {
		if _, err := s.Next(1.5, 0.25); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvalLane(b *testing.B) {
	s := benchSampler(b)
	p := s.planOf(17.5)
	var sink int64
	for i := 0; i < b.N; i++ {
		z, acc := evalLane(p, 0.375, int64(i%91)-45, uint64(i)*0x9e3779b97f4a7c15)
		sink += z + int64(acc)
	}
	_ = sink
}

func BenchmarkCtExpThreshold(b *testing.B) {
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += ctExpThreshold(float64(i%97) * 0.21)
	}
	_ = sink
}
