package gen

import (
	"math/rand"
	"os"
	"testing"

	"ctgauss/internal/core"
	"ctgauss/internal/prng"
	"ctgauss/internal/sampler"
)

// TestGeneratedMatchesInterpreted is the determinism/correctness check for
// the checked-in circuits: each file must be exactly what go generate
// writes from a rebuild of the pipeline, interpreting the rebuilt
// program must agree with the compiled source on random inputs, and a
// width-1 sampler over either form must draw the same stream.
func TestGeneratedMatchesInterpreted(t *testing.T) {
	cases := []struct {
		sigma, file, name string
		fn                func(in, out []uint64)
		numInputs         int
		valueBits         int
	}{
		{"2", "sigma2.go", "Sigma2Batch", Sigma2Batch, Sigma2BatchInputs, Sigma2BatchValueBits},
		{"6.15543", "sigma615543.go", "Sigma615543Batch", Sigma615543Batch, Sigma615543BatchInputs, Sigma615543BatchValueBits},
	}
	for _, c := range cases {
		b, err := core.Build(core.Config{Sigma: c.sigma, N: 128, TailCut: 13, Min: core.MinimizeExact})
		if err != nil {
			t.Fatal(err)
		}
		checkedIn, err := os.ReadFile(c.file)
		if err != nil {
			t.Fatal(err)
		}
		if string(checkedIn) != b.Program.EmitGoFile("gen", c.name) {
			t.Fatalf("σ=%s: %s differs from what go generate writes — rerun go generate ./internal/sampler/gen", c.sigma, c.file)
		}
		if b.Program.NumInputs != c.numInputs || b.Program.ValueBits != c.valueBits {
			t.Fatalf("σ=%s: shape drift: rebuild has %d/%d, generated %d/%d — rerun go generate",
				c.sigma, b.Program.NumInputs, b.Program.ValueBits, c.numInputs, c.valueBits)
		}
		rng := rand.New(rand.NewSource(7))
		in := make([]uint64, c.numInputs)
		out := make([]uint64, c.valueBits)
		regs := make([]uint64, b.Program.NumRegs)
		want := make([]uint64, c.valueBits)
		for trial := 0; trial < 200; trial++ {
			for i := range in {
				in[i] = rng.Uint64()
			}
			c.fn(in, out)
			b.Program.RunInto(in, regs, want)
			for i := range want {
				if out[i] != want[i] {
					t.Fatalf("σ=%s trial %d: generated code diverges at word %d", c.sigma, trial, i)
				}
			}
		}
		compiled := sampler.NewCompiled("gen", c.fn, c.numInputs, c.valueBits, prng.MustChaCha20([]byte("gen-stream")))
		interp := b.NewWideSampler(prng.MustChaCha20([]byte("gen-stream")), 1)
		for i := 0; i < 64*64; i++ {
			if g, w := compiled.Next(), interp.Next(); g != w {
				t.Fatalf("σ=%s sample %d: generated sampler %d, interpreted %d", c.sigma, i, g, w)
			}
		}
		if compiled.BitsUsed() != interp.BitsUsed() {
			t.Fatalf("σ=%s: generated sampler read %d bits, interpreted %d", c.sigma, compiled.BitsUsed(), interp.BitsUsed())
		}
	}
}
