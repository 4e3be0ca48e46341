package bigfp

import (
	"math"
	"math/big"
	"testing"
	"testing/quick"
)

func TestLn2MatchesFloat64(t *testing.T) {
	got, _ := Ln2(64).Float64()
	if math.Abs(got-math.Ln2) > 1e-15 {
		t.Fatalf("Ln2 = %v, want %v", got, math.Ln2)
	}
}

func TestLn2HighPrecisionStable(t *testing.T) {
	// The first 192 bits of ln2 at 256-bit precision must agree with the
	// 192-bit computation: increasing precision must not change leading bits.
	a := Ln2(192)
	b := Ln2(256).SetPrec(192)
	diff := new(big.Float).Sub(a, b)
	if diff.Sign() != 0 && diff.MantExp(nil) > -190 {
		t.Fatalf("Ln2 unstable across precisions: diff exponent %d", diff.MantExp(nil))
	}
}

func TestExpNegMatchesFloat64(t *testing.T) {
	for _, x := range []float64{0, 0.1, 0.5, 1, 2, 3.7, 10, 25.25, 50} {
		arg := new(big.Float).SetPrec(96).SetFloat64(x)
		got, _ := ExpNeg(arg, 96).Float64()
		want := math.Exp(-x)
		if math.Abs(got-want) > 1e-14*math.Max(want, 1e-300) && math.Abs(got-want) > 1e-300 {
			t.Errorf("ExpNeg(%v) = %g, want %g", x, got, want)
		}
	}
}

func TestExpNegZero(t *testing.T) {
	got, _ := ExpNeg(big.NewFloat(0), 64).Float64()
	if got != 1 {
		t.Fatalf("ExpNeg(0) = %v, want 1", got)
	}
}

func TestExpNegPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative argument")
		}
	}()
	ExpNeg(big.NewFloat(-1), 64)
}

func TestExpNegMultiplicative(t *testing.T) {
	// e^-(a+b) == e^-a * e^-b (property check at high precision).
	f := func(a8, b8 uint8) bool {
		a := float64(a8%32) / 4
		b := float64(b8%32) / 4
		prec := uint(128)
		fa := new(big.Float).SetPrec(prec).SetFloat64(a)
		fb := new(big.Float).SetPrec(prec).SetFloat64(b)
		fab := new(big.Float).SetPrec(prec).Add(fa, fb)
		lhs := ExpNeg(fab, prec)
		rhs := new(big.Float).SetPrec(prec).Mul(ExpNeg(fa, prec), ExpNeg(fb, prec))
		diff := new(big.Float).Sub(lhs, rhs)
		if diff.Sign() == 0 {
			return true
		}
		// Relative error must be below 2^-100.
		return diff.MantExp(nil)-lhs.MantExp(nil) < -100
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGaussMatchesFloat64(t *testing.T) {
	sigma := big.NewFloat(2).SetPrec(96)
	for x := int64(0); x <= 20; x++ {
		got, _ := Gauss(x, sigma, 96).Float64()
		want := math.Exp(-float64(x*x) / 8)
		if math.Abs(got-want) > 1e-13 {
			t.Errorf("Gauss(%d, σ=2) = %g, want %g", x, got, want)
		}
	}
}

func TestFracBitsKnownValues(t *testing.T) {
	// 0.5 -> 100...0 ; 0.25 -> 0100... ; 0.75 -> 1100...
	cases := []struct {
		p    float64
		want []byte
	}{
		{0.5, []byte{1, 0, 0, 0}},
		{0.25, []byte{0, 1, 0, 0}},
		{0.75, []byte{1, 1, 0, 0}},
		{0.8125, []byte{1, 1, 0, 1}},
		{0, []byte{0, 0, 0, 0}},
	}
	for _, c := range cases {
		got := FracBits(new(big.Float).SetPrec(64).SetFloat64(c.p), 4)
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Errorf("FracBits(%v) = %v, want %v", c.p, got, c.want)
				break
			}
		}
	}
}

func TestFracBitsClampAtOne(t *testing.T) {
	got := FracBits(big.NewFloat(1), 5)
	for i, b := range got {
		if b != 1 {
			t.Fatalf("bit %d = %d, want 1", i, b)
		}
	}
}

func TestFracBitsRoundTrip(t *testing.T) {
	// Reassembling the bits must reproduce floor(p*2^n)/2^n.
	f := func(u uint32) bool {
		p := float64(u) / float64(1<<32)
		n := 24
		bits := FracBits(new(big.Float).SetPrec(64).SetFloat64(p), n)
		var acc float64
		w := 0.5
		for _, b := range bits {
			if b == 1 {
				acc += w
			}
			w /= 2
		}
		return math.Abs(acc-p) < 1.0/float64(int64(1)<<uint(n))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFixedFromFloat(t *testing.T) {
	p := new(big.Float).SetPrec(64).SetFloat64(0.625)
	z := FixedFromFloat(p, 8)
	if z.Int64() != 160 { // 0.625 * 256
		t.Fatalf("FixedFromFloat(0.625, 8) = %v, want 160", z)
	}
}

func TestGaussMuReducesToGauss(t *testing.T) {
	sigma := big.NewFloat(2).SetPrec(96)
	zero := big.NewFloat(0).SetPrec(96)
	for x := int64(-10); x <= 10; x++ {
		a, _ := GaussMu(x, sigma, zero, 96).Float64()
		mag := x
		if mag < 0 {
			mag = -mag
		}
		b, _ := Gauss(mag, sigma, 96).Float64()
		if math.Abs(a-b) > 1e-15 {
			t.Errorf("GaussMu(%d, μ=0) = %g, Gauss = %g", x, a, b)
		}
	}
	// Shifting the center by an integer shifts the density exactly.
	mu := big.NewFloat(3).SetPrec(96)
	a, _ := GaussMu(5, sigma, mu, 96).Float64()
	b, _ := Gauss(2, sigma, 96).Float64()
	if math.Abs(a-b) > 1e-15 {
		t.Errorf("GaussMu(5, μ=3) = %g, want Gauss(2) = %g", a, b)
	}
}

// TestPMFTableDriven pins the batch reference over the regimes the
// acceptance grid sweeps: very small σ (below the smoothing parameter of
// ℤ), the paper's base σ values, the large-σ convolution regime, and
// centers on grid-cell boundaries (integer, half-integer, and the
// quarter-fraction boundaries the convolved sweep uses).
func TestPMFTableDriven(t *testing.T) {
	cases := []struct {
		name      string
		sigma, mu float64
	}{
		{"tiny-sigma", 0.25, 0},
		{"sub-smoothing", 0.5, 0.5},
		{"unit", 1, -0.5},
		{"base-2", 2, 0},
		{"cell-boundary-quarter", 2.5, 0.25},
		{"cell-boundary-neg", 3.3, -2.625},
		{"base-falcon", 6.15543, 0.5},
		{"large-sigma", 100, 0},
		{"large-sigma-offcenter", 173.2, 7.75},
	}
	const prec = 160
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sigma := new(big.Float).SetPrec(prec).SetFloat64(c.sigma)
			mu := new(big.Float).SetPrec(prec).SetFloat64(c.mu)
			lo := int64(math.Floor(c.mu - 12*c.sigma))
			hi := int64(math.Ceil(c.mu + 12*c.sigma))
			probs, tail := PMF(sigma, mu, lo, hi, prec)

			// The window plus the tail must account for all mass.
			var sum float64
			for _, p := range probs {
				if p < 0 {
					t.Fatalf("negative probability %g", p)
				}
				sum += p
			}
			if math.Abs(sum+tail-1) > 1e-9 {
				t.Fatalf("window %g + tail %g ≠ 1", sum, tail)
			}
			// A 12σ window strands only ≈ e^-72 of ideal mass.
			if tail > 1e-25 {
				t.Fatalf("tail mass %g too large for a 12σ window", tail)
			}

			// Symmetry: when 2μ ∈ ℤ the distribution is symmetric about μ,
			// so points equidistant from μ carry equal mass.
			if r := 2 * c.mu; r == math.Trunc(r) {
				for i, j := 0, len(probs)-1; i < j; i, j = i+1, j-1 {
					li, rj := float64(lo+int64(i)), float64(lo+int64(len(probs)-1-i))
					if math.Abs((li-c.mu)+(rj-c.mu)) < 1e-12 { // mirror pair about μ
						if rel := math.Abs(probs[i]-probs[j]) / math.Max(probs[i], 1e-300); probs[i] > 1e-200 && rel > 1e-9 {
							t.Fatalf("asymmetry at ±%g: %g vs %g", li-c.mu, probs[i], probs[j])
						}
					}
				}
			}

			// Moments from the PMF window must match the Moments helper.
			var mean, m2 float64
			for i, p := range probs {
				x := float64(lo + int64(i))
				mean += x * p
				m2 += x * x * p
			}
			variance := m2 - mean*mean
			hm, hv := Moments(sigma, mu, prec)
			if math.Abs(mean-hm) > 1e-8*math.Max(1, math.Abs(hm)) {
				t.Fatalf("window mean %g vs Moments mean %g", mean, hm)
			}
			if math.Abs(variance-hv) > 1e-6*math.Max(1, hv) {
				t.Fatalf("window variance %g vs Moments variance %g", variance, hv)
			}
		})
	}
}

// TestMomentsClosedForm asserts agreement with the closed-form moments:
// the discrete Gaussian's mean is exactly μ whenever 2μ ∈ ℤ (symmetry),
// and for σ at or above the smoothing parameter the variance matches the
// continuous σ² up to theta-function corrections of order e^(-2π²σ²) —
// already below 10⁻⁸ at σ = 1.  Below smoothing (σ < 1) the lattice
// visibly starves the variance, which the table pins as a strict
// inequality with a reference value from an independent float64
// summation.
func TestMomentsClosedForm(t *testing.T) {
	const prec = 160
	cases := []struct {
		sigma, mu float64
	}{
		{1, 0}, {1, 0.5}, {1.5, -3.5}, {2, 0}, {2, 7},
		{6.15543, 0.5}, {17.5, -0.5}, {100, 0}, {256, 12.5},
	}
	for _, c := range cases {
		sigma := new(big.Float).SetPrec(prec).SetFloat64(c.sigma)
		mu := new(big.Float).SetPrec(prec).SetFloat64(c.mu)
		mean, variance := Moments(sigma, mu, prec)
		if math.Abs(mean-c.mu) > 1e-8*math.Max(1, math.Abs(c.mu)) {
			t.Errorf("σ=%g μ=%g: mean %g differs from closed form μ", c.sigma, c.mu, mean)
		}
		want := c.sigma * c.sigma
		if math.Abs(variance-want) > 1e-6*want {
			t.Errorf("σ=%g μ=%g: variance %g differs from closed form σ²=%g", c.sigma, c.mu, variance, want)
		}
	}

	// Sub-smoothing regime: variance collapses below σ².
	for _, c := range []struct {
		sigma   float64
		maxFrac float64 // variance must fall below maxFrac·σ²
	}{
		{0.5, 0.95},
		{0.25, 0.35},
	} {
		sigma := new(big.Float).SetPrec(prec).SetFloat64(c.sigma)
		zero := big.NewFloat(0).SetPrec(prec)
		_, variance := Moments(sigma, zero, prec)
		if variance >= c.maxFrac*c.sigma*c.sigma {
			t.Errorf("σ=%g: variance %g does not collapse below %g·σ²", c.sigma, variance, c.maxFrac)
		}
		// Cross-check against a direct float64 summation — an independent
		// implementation path (math.Exp, no big floats).
		var z, m2 float64
		for x := -40; x <= 40; x++ {
			w := math.Exp(-float64(x*x) / (2 * c.sigma * c.sigma))
			z += w
			m2 += float64(x*x) * w
		}
		if ref := m2 / z; math.Abs(variance-ref) > 1e-10 {
			t.Errorf("σ=%g: bigfp variance %g vs float64 reference %g", c.sigma, variance, ref)
		}
	}
}

func TestParseSigma(t *testing.T) {
	s, err := ParseSigma("6.15543", 96)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := s.Float64()
	if math.Abs(f-6.15543) > 1e-12 {
		t.Fatalf("ParseSigma = %v", f)
	}
	if _, err := ParseSigma("-1", 64); err == nil {
		t.Fatal("expected error for negative sigma")
	}
	if _, err := ParseSigma("abc", 64); err == nil {
		t.Fatal("expected error for malformed sigma")
	}
}
