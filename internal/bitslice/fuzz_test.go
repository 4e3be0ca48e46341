package bitslice

import (
	"math/rand"
	"testing"

	"ctgauss/internal/bitslice/dispatch"
)

// fuzzProgram decodes bytes into a valid SSA program: an input count
// (1–16), an output count (1–16) and that many output selectors, then
// (op, a, b) triples, one instruction each, whose operands are reduced
// modulo the registers defined so far.  Selectors are reduced modulo the
// final register count, so outputs may repeat or name inputs.  It
// returns nil when data is too short for the header.
func fuzzProgram(data []byte) *Program {
	if len(data) < 2 {
		return nil
	}
	numIn, numOut := 1+int(data[0])%16, 1+int(data[1])%16
	data = data[2:]
	if len(data) < numOut {
		return nil
	}
	sel, data := data[:numOut], data[numOut:]
	p := &Program{NumInputs: numIn, NumRegs: numIn, SignInput: -1, ValueBits: numOut}
	for ; len(data) >= 3; data = data[3:] {
		dst := p.NumRegs
		p.Code = append(p.Code, Instr{
			Op:  Op(data[0] % byte(OpOnes+1)),
			A:   int(data[1]) % dst,
			B:   int(data[2]) % dst,
			Dst: dst,
		})
		p.NumRegs++
	}
	for _, s := range sel {
		p.Outputs = append(p.Outputs, int(s)%p.NumRegs)
	}
	return p
}

// FuzzProgramOptimize checks the optimizer against the reference
// interpreter on decoded programs: RunWideInto at width 1, and at Width
// under the portable backend and under every detected SIMD backend in
// turn, must equal Run lane for lane on every 64-lane block.  Forcing
// each backend means an AVX2 host fuzzes runWide16 as well as its
// kernel.  Seeds live in testdata/fuzz/FuzzProgramOptimize.
func FuzzProgramOptimize(f *testing.F) {
	backends := append([]dispatch.Backend{dispatch.Portable}, dispatch.Detected()...)
	f.Fuzz(func(t *testing.T, data []byte) {
		p := fuzzProgram(data)
		if p == nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("decoded an invalid program: %v", err)
		}
		o := Optimize(p)
		rng := rand.New(rand.NewSource(int64(len(data))))
		ref := make([]uint64, p.NumInputs)
		check := func(w int, backend string) {
			in := make([]uint64, p.NumInputs*w)
			for i := range in {
				in[i] = rng.Uint64()
			}
			out := make([]uint64, len(o.Outputs)*w)
			o.RunWideInto(w, in, o.NewSlots(w), out)
			for blk := 0; blk < w; blk++ {
				for i := range ref {
					ref[i] = in[i*w+blk]
				}
				for i, want := range p.Run(ref, nil) {
					if got := out[i*w+blk]; got != want {
						t.Fatalf("w=%d %s block %d output %d: optimized %#x, interpreted %#x", w, backend, blk, i, got, want)
					}
				}
			}
		}
		check(1, dispatch.Active().String())
		for _, b := range backends {
			restore, err := dispatch.Force(b)
			if err != nil {
				t.Fatal(err)
			}
			check(Width, b.String())
			restore()
		}
	})
}
