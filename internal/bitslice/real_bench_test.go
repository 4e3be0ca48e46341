package bitslice_test

// Benchmarks of the evaluation engines on the paper's real generated
// circuits (σ=2 and σ=6.15543 at n=128): the reference SSA interpreter,
// the register-allocated Optimized form at width 1, and every SIMD
// backend this CPU has (plus the portable interpreter) at
// bitslice.Width, each forced through dispatch.Force.  Wide rows report
// ns/batch (per 64 samples) for comparability; the backend rows also
// report ns/sample.

import (
	"fmt"
	"math/rand"
	"testing"

	"ctgauss/internal/bitslice"
	"ctgauss/internal/bitslice/dispatch"
	"ctgauss/internal/core"
)

func realProg(b *testing.B, sigma string) *bitslice.Program {
	built, err := core.Build(core.Config{Sigma: sigma, N: 128, TailCut: 13, Min: core.MinimizeExact})
	if err != nil {
		b.Fatal(err)
	}
	return built.Program
}

func BenchmarkRealEngines(b *testing.B) {
	backends := append([]dispatch.Backend{dispatch.Portable}, dispatch.Detected()...)
	for _, sigma := range []string{"2", "6.15543"} {
		p := realProg(b, sigma)
		o := bitslice.Optimize(p)
		rng := rand.New(rand.NewSource(1))
		b.Run("sigma"+sigma+"/reference", func(b *testing.B) {
			in := make([]uint64, p.NumInputs)
			for i := range in {
				in[i] = rng.Uint64()
			}
			regs := make([]uint64, p.NumRegs)
			out := make([]uint64, len(p.Outputs))
			b.ReportMetric(float64(p.OpCount()), "ops")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.RunInto(in, regs, out)
			}
		})
		runWide := func(b *testing.B, w int) {
			in := make([]uint64, p.NumInputs*w)
			for i := range in {
				in[i] = rng.Uint64()
			}
			slots := o.NewSlots(w)
			out := make([]uint64, len(o.Outputs)*w)
			b.ReportMetric(float64(o.OpCount()), "ops")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o.RunWideInto(w, in, slots, out)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*w), "ns/batch")
		}
		b.Run(fmt.Sprintf("sigma%s/opt-w1", sigma), func(b *testing.B) { runWide(b, 1) })
		for _, be := range backends {
			b.Run(fmt.Sprintf("sigma%s/%s/w%d", sigma, be, bitslice.Width), func(b *testing.B) {
				restore, err := dispatch.Force(be)
				if err != nil {
					b.Fatal(err)
				}
				defer restore()
				runWide(b, bitslice.Width)
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*bitslice.Width*64), "ns/sample")
			})
		}
	}
}
