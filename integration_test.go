package ctgauss_test

import (
	"go/parser"
	"go/token"
	"math"
	"testing"

	"ctgauss"
	"ctgauss/falcon"
	"ctgauss/internal/bitslice"
	"ctgauss/internal/core"
	"ctgauss/internal/prng"
	"ctgauss/internal/sampler"
)

// TestGeneratedCodeParses feeds gaussgen's output through the Go parser:
// the emitted sampler source must be syntactically valid Go.
func TestGeneratedCodeParses(t *testing.T) {
	s, err := ctgauss.NewWithConfig(ctgauss.Config{Sigma: "2", Precision: 48})
	if err != nil {
		t.Fatal(err)
	}
	src := s.GenerateGo("gen", "Sample64")
	fset := token.NewFileSet()
	if _, err := parser.ParseFile(fset, "gen.go", src, 0); err != nil {
		t.Fatalf("generated code does not parse: %v\n%s", err, src[:min(len(src), 2000)])
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestPipelineToFalconIntegration runs the complete stack: pipeline-built
// sampler → Falcon keygen → signer with that same sampler family → verify.
func TestPipelineToFalconIntegration(t *testing.T) {
	sk, err := falcon.Keygen(256, []byte("integration"))
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []falcon.BaseSamplerKind{falcon.BaseBitsliced, falcon.BaseLinearCDT} {
		signer, err := falcon.NewSigner(sk, kind, []byte("int-sign"))
		if err != nil {
			t.Fatal(err)
		}
		msgs := [][]byte{{}, []byte("a"), []byte("integration message"), make([]byte, 10000)}
		for _, msg := range msgs {
			sig, err := signer.Sign(msg)
			if err != nil {
				t.Fatalf("%v: %v", kind, err)
			}
			if err := sk.Public().Verify(msg, sig); err != nil {
				t.Fatalf("%v: %v", kind, err)
			}
		}
	}
}

// TestCrossSamplerDistributionAgreement: all sampler families over the
// same table must produce statistically indistinguishable distributions
// (χ² over the central support).
func TestCrossSamplerDistributionAgreement(t *testing.T) {
	b, err := core.Build(core.Config{Sigma: "2", N: 128, TailCut: 13, Min: core.MinimizeExact})
	if err != nil {
		t.Fatal(err)
	}
	const samples = 1 << 17
	families := map[string]sampler.Sampler{
		"bitsliced": b.NewWideSampler(prng.MustChaCha20([]byte("x1")), bitslice.Width),
		"cdt":       sampler.NewCDT(b.Table, prng.MustChaCha20([]byte("x2"))),
		"bytescan":  sampler.NewByteScanCDT(b.Table, prng.MustChaCha20([]byte("x3"))),
		"linear":    sampler.NewLinearCDT(b.Table, prng.MustChaCha20([]byte("x4"))),
		"knuthyao":  sampler.NewKnuthYao(b.Table, prng.MustChaCha20([]byte("x5"))),
	}
	for name, s := range families {
		counts := make(map[int]int)
		for i := 0; i < samples; i++ {
			counts[s.Next()]++
		}
		var chi2 float64
		cells := 0
		for z := -8; z <= 8; z++ {
			want := b.Table.SignedProb(z) * samples
			if want < 10 {
				continue
			}
			d := float64(counts[z]) - want
			chi2 += d * d / want
			cells++
		}
		// dof ≈ cells-1 = 16; χ² beyond 50 is a < 10⁻⁵ event.
		if chi2 > 50 {
			t.Errorf("%s: χ² = %.1f over %d cells", name, chi2, cells)
		}
	}
}

// TestSignerDeterministicWithFixedSeeds: the whole signing stack is
// deterministic given seeds, which is what makes every experiment in this
// repo reproducible.
func TestSignerDeterministicWithFixedSeeds(t *testing.T) {
	sk, err := falcon.Keygen(256, []byte("det"))
	if err != nil {
		t.Fatal(err)
	}
	mk := func() *falcon.Signature {
		signer, err := falcon.NewSigner(sk, falcon.BaseBitsliced, []byte("det-sign"))
		if err != nil {
			t.Fatal(err)
		}
		sig, err := signer.Sign([]byte("deterministic"))
		if err != nil {
			t.Fatal(err)
		}
		return sig
	}
	a, b := mk(), mk()
	if string(a.Encode()) != string(b.Encode()) {
		t.Fatal("signing not deterministic under fixed seeds")
	}
}

// TestPrecisionSweep: the pipeline must hold its invariants across the
// precision range, and the sampled variance must stay at σ².
func TestPrecisionSweep(t *testing.T) {
	for _, n := range []int{8, 16, 24, 48, 96, 128} {
		s, err := ctgauss.NewWithConfig(ctgauss.Config{Sigma: "2", Precision: n, Seed: []byte("sweep")})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		var sq float64
		const total = 1 << 15
		for i := 0; i < total; i++ {
			v := float64(s.Next())
			sq += v * v
		}
		variance := sq / total
		tol := 0.25
		if n <= 8 {
			tol = 0.6 // heavy truncation at tiny precision
		}
		if math.Abs(variance-4) > tol {
			t.Errorf("n=%d: variance %.3f", n, variance)
		}
	}
}

// TestTailCutSweep: widening τ must not break the pipeline and must not
// change the central probabilities materially.
func TestTailCutSweep(t *testing.T) {
	var p0 []float64
	for _, tau := range []float64{6, 10, 13, 16} {
		s, err := ctgauss.NewWithConfig(ctgauss.Config{Sigma: "2", Precision: 64, TailCut: tau})
		if err != nil {
			t.Fatalf("τ=%v: %v", tau, err)
		}
		p0 = append(p0, s.Prob(0))
	}
	for i := 1; i < len(p0); i++ {
		if math.Abs(p0[i]-p0[0]) > 1e-6 {
			t.Fatalf("P(0) drifts with τ: %v", p0)
		}
	}
}
