package bitslice

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchProgram builds a mux-chain-shaped circuit comparable to the σ=2
// sampler: accumulation chains of and/or with shared selector prefixes.
func benchProgram() *Program {
	rng := rand.New(rand.NewSource(3))
	b := newBuilder(130, true)
	outs := make([]int, 5)
	for i := range outs {
		outs[i] = b.zero()
	}
	prefix := b.ones()
	for k := 0; k < 100; k++ {
		sel := b.andNot(prefix, k)
		for i := range outs {
			f := 100 + rng.Intn(29)
			g := 100 + rng.Intn(29)
			term := b.and(f, g)
			outs[i] = b.or(outs[i], b.and(sel, term))
		}
		prefix = b.and(prefix, k)
	}
	p := b.p
	p.Outputs = outs
	p.ValueBits = len(outs)
	p.MaxSupport = 31
	return p
}

func benchInputs(n int) []uint64 {
	rng := rand.New(rand.NewSource(5))
	in := make([]uint64, n)
	for i := range in {
		in[i] = rng.Uint64()
	}
	return in
}

func BenchmarkRunReference(b *testing.B) {
	p := benchProgram()
	in := benchInputs(p.NumInputs)
	regs := make([]uint64, p.NumRegs)
	out := make([]uint64, len(p.Outputs))
	b.ReportMetric(float64(p.OpCount()), "ops")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.RunInto(in, regs, out)
	}
}

func BenchmarkRunOptimized(b *testing.B) {
	p := benchProgram()
	o := Optimize(p)
	in := benchInputs(p.NumInputs)
	slots := o.NewSlots(1)
	out := make([]uint64, len(o.Outputs))
	b.ReportMetric(float64(o.OpCount()), "ops")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.RunInto(in, slots, out)
	}
}

func BenchmarkRunWide(b *testing.B) {
	p := benchProgram()
	o := Optimize(p)
	for _, w := range []int{1, Width} {
		b.Run(fmt.Sprintf("w%d", w), func(b *testing.B) {
			in := benchInputs(p.NumInputs * w)
			slots := o.NewSlots(w)
			out := make([]uint64, len(o.Outputs)*w)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o.RunWideInto(w, in, slots, out)
			}
			// per-64-lane batch cost for comparability
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*w), "ns/batch")
		})
	}
}

func BenchmarkUnpackAll(b *testing.B) {
	out := benchInputs(5)
	var dst [64]int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		UnpackAll(out, dst[:])
	}
}

func BenchmarkUnpackNaive(b *testing.B) {
	out := benchInputs(5)
	var dst [64]int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for l := 0; l < 64; l++ {
			v := 0
			for j, w := range out {
				v |= int((w>>uint(l))&1) << uint(j)
			}
			dst[l] = v
		}
	}
}
