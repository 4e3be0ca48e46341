package ctcheck

import (
	"math"
	"math/rand"
	"testing"

	"ctgauss/internal/bitslice"
	"ctgauss/internal/core"
	"ctgauss/internal/prng"
	"ctgauss/internal/sampler"
)

func TestWelchZeroOnIdentical(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	if got := Welch(a, a); got != 0 {
		t.Fatalf("Welch(a,a) = %v", got)
	}
}

func TestWelchDetectsShift(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := make([]float64, 500)
	b := make([]float64, 500)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = rng.NormFloat64() + 1 // shifted mean
	}
	if got := Welch(a, b); math.Abs(got) < 10 {
		t.Fatalf("Welch should detect unit shift, got %v", got)
	}
}

func TestWelchSmallSamples(t *testing.T) {
	if Welch([]float64{1}, []float64{2, 3}) != 0 {
		t.Fatal("short samples must yield 0")
	}
	if Welch([]float64{1, 1}, []float64{1, 1}) != 0 {
		t.Fatal("zero variance must yield 0")
	}
}

func TestCrop(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 100}
	c := Crop(xs, 0.9)
	for _, x := range c {
		if x == 100 {
			t.Fatal("outlier survived crop")
		}
	}
	if len(c) != 9 {
		t.Fatalf("cropped to %d, want 9", len(c))
	}
}

func TestCropPanicsOnBadPct(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Crop([]float64{1}, 0)
}

func TestWorkTraceConstant(t *testing.T) {
	var w WorkTrace
	for i := 0; i < 10; i++ {
		w.Record(42)
	}
	if !w.Constant() {
		t.Fatal("constant trace reported varying")
	}
	w.Record(43)
	if w.Constant() {
		t.Fatal("varying trace reported constant")
	}
}

func TestWorkTraceCorrelation(t *testing.T) {
	var w WorkTrace
	secret := make([]float64, 100)
	for i := range secret {
		secret[i] = float64(i % 7)
		w.Record(uint64(10 + i%7)) // perfectly correlated
	}
	if c := w.Correlation(secret); c < 0.99 {
		t.Fatalf("correlation = %v, want ≈ 1", c)
	}
}

// TestBitslicedSamplerWorkIsConstant verifies the paper's central security
// claim deterministically: the bitsliced sampler consumes a fixed number
// of random bits and executes a fixed instruction sequence, regardless of
// the sampled values.  At either width the consumption cadence is one
// fixed draw per refill (width batches); at width 1 that is the paper's
// exact per-batch form.
func TestBitslicedSamplerWorkIsConstant(t *testing.T) {
	b, err := core.Build(core.Config{Sigma: "2", N: 64, TailCut: 13, Min: core.MinimizeExact})
	if err != nil {
		t.Fatal(err)
	}
	for _, width := range []int{1, bitslice.Width} {
		s := b.NewWideSampler(prng.MustChaCha20([]byte("ct")), width)
		var w WorkTrace
		prev := uint64(0)
		for cycle := 0; cycle < 200; cycle++ {
			dst := make([]int, 64)
			for j := 0; j < width; j++ {
				s.NextBatch(dst)
			}
			w.Record(s.BitsUsed() - prev)
			prev = s.BitsUsed()
		}
		if !w.Constant() {
			t.Fatalf("width %d: bitsliced sampler consumed varying randomness per refill", width)
		}
	}
}

// TestByteScanLeakDetectedByWorkCount shows the contrast: the byte-scan
// CDT's work depends on the sample.
func TestByteScanLeakDetectedByWorkCount(t *testing.T) {
	p, err := core.Build(core.Config{Sigma: "2", N: 64, TailCut: 13, Min: core.MinimizeExact})
	if err != nil {
		t.Fatal(err)
	}
	bs := sampler.NewByteScanCDT(p.Table, prng.MustChaCha20([]byte("bsleak")))
	var w WorkTrace
	secret := make([]float64, 0, 20000)
	for i := 0; i < 20000; i++ {
		before := bs.Steps
		v := bs.Next()
		if v < 0 {
			v = -v
		}
		w.Record(bs.Steps - before)
		secret = append(secret, float64(v))
	}
	if w.Constant() {
		t.Fatal("byte-scan CDT work unexpectedly constant")
	}
	if c := w.Correlation(secret); c < 0.5 {
		t.Fatalf("byte-scan work/sample correlation = %.3f, want strong positive", c)
	}
}

// TestLinearCDTWorkIsConstant: the constant-time CDT baseline really is
// flat in work count.
func TestLinearCDTWorkIsConstant(t *testing.T) {
	p, err := core.Build(core.Config{Sigma: "2", N: 64, TailCut: 13, Min: core.MinimizeExact})
	if err != nil {
		t.Fatal(err)
	}
	lin := sampler.NewLinearCDT(p.Table, prng.MustChaCha20([]byte("linct")))
	var w WorkTrace
	for i := 0; i < 5000; i++ {
		before := lin.Steps
		lin.Next()
		w.Record(lin.Steps - before)
	}
	if !w.Constant() {
		t.Fatal("linear CDT work varies")
	}
}

func TestCompareTimingSmoke(t *testing.T) {
	// Identical closures must not be flagged (generous threshold; wall
	// clock under CI is noisy, so this is a smoke test only).
	x := 0
	f := func() { x++ }
	r := CompareTiming(f, f, Options{Measurements: 300, InnerReps: 16})
	if r.NA == 0 || r.NB == 0 {
		t.Fatal("no measurements")
	}
	if math.Abs(r.T) > 50 {
		t.Fatalf("identical closures produced |t|=%v", r.T)
	}
	_ = r.String()
}

func TestResultString(t *testing.T) {
	if s := (Result{T: 10, Leaky: true}).String(); s == "" {
		t.Fatal("empty string")
	}
}

func TestChiSquarePerfectFit(t *testing.T) {
	// Observations exactly proportional to the expectation: statistic 0,
	// p-value 1.
	obs := []uint64{100, 300, 400, 200}
	probs := []float64{0.1, 0.3, 0.4, 0.2}
	stat, df := ChiSquare(obs, probs)
	if stat != 0 || df != 3 {
		t.Fatalf("stat=%v df=%d, want 0 and 3", stat, df)
	}
	if p := ChiSquarePValue(stat, df); p < 0.99 {
		t.Fatalf("p-value %v for a perfect fit", p)
	}
	if r := Renyi(obs, probs, 2); math.Abs(r-1) > 1e-12 {
		t.Fatalf("Rényi-2 = %v for a perfect fit, want 1", r)
	}
}

func TestChiSquarePValueCalibration(t *testing.T) {
	// Wilson–Hilferty sanity: the median of χ²_k is ≈ k(1−2/(9k))³, so
	// the p-value there must be ≈ 0.5; far tails must collapse.
	for _, df := range []int{5, 30, 200} {
		k := float64(df)
		median := k * math.Pow(1-2/(9*k), 3)
		if p := ChiSquarePValue(median, df); math.Abs(p-0.5) > 0.01 {
			t.Fatalf("df=%d: p(median)=%v, want ≈ 0.5", df, p)
		}
		if p := ChiSquarePValue(10*k, df); p > 1e-6 {
			t.Fatalf("df=%d: p(10k)=%v, want ≈ 0", df, p)
		}
	}
	if ChiSquarePValue(math.Inf(1), 4) != 0 {
		t.Fatal("infinite statistic must give p = 0")
	}
}

// TestGaussianHarnessAcceptsTrueRejectsWrong drives the full harness
// with synthetic Box–Muller-ish draws: samples rounded from the matching
// normal pass; the same samples tested against a 20%-off σ fail.
func TestGaussianHarnessAcceptsTrueRejectsWrong(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const n = 60000
	sigma, mu := 4.2, 0.375
	samples := make([]int, n)
	for i := range samples {
		samples[i] = int(math.Round(rng.NormFloat64()*sigma + mu))
	}
	// Rounding a continuous normal to ℤ is within ~1/(24σ²) of the
	// discrete Gaussian — far below chi-square power at this n.
	good := ChiSquareGaussian(samples, sigma, mu)
	if !good.Pass(0.001, 1.01) {
		t.Fatalf("true distribution rejected: %s", good)
	}
	bad := ChiSquareGaussian(samples, sigma*1.2, mu)
	if bad.Pass(0.001, 1.01) {
		t.Fatalf("20%%-off σ accepted: %s", bad)
	}
	shifted := ChiSquareGaussian(samples, sigma, mu+1)
	if shifted.Pass(0.001, 1.01) {
		t.Fatalf("unit-shifted center accepted: %s", shifted)
	}
	// An outlier far outside the 12σ window is an immediate fail.
	withOutlier := append(append([]int(nil), samples...), int(100*sigma))
	if g := ChiSquareGaussian(withOutlier, sigma, mu); g.Pass(0.001, 1.01) || !math.IsInf(g.Stat, 1) {
		t.Fatalf("far outlier not flagged: %s", g)
	}
}

// TestGOFAgainstMatchesGaussianForm pins the refactor: ChiSquareGaussian
// is GOFAgainst over the float64 reference window, so an explicit
// reference with the same probabilities must return the identical
// verdict, and a deliberately wrong reference must fail.
func TestGOFAgainstMatchesGaussianForm(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 40000
	sigma := 3.0
	samples := make([]int, n)
	for i := range samples {
		samples[i] = int(math.Round(rng.NormFloat64() * sigma))
	}
	lo := int(math.Floor(-12 * sigma))
	hi := int(math.Ceil(12 * sigma))
	probs := make([]float64, hi-lo+1)
	var z float64
	for v := lo; v <= hi; v++ {
		probs[v-lo] = math.Exp(-float64(v) * float64(v) / (2 * sigma * sigma))
		z += probs[v-lo]
	}
	for i := range probs {
		probs[i] /= z
	}
	direct := GOFAgainst(samples, lo, append([]float64(nil), probs...))
	viaGaussian := ChiSquareGaussian(samples, sigma, 0)
	if direct.Stat != viaGaussian.Stat || direct.DF != viaGaussian.DF || direct.Renyi2 != viaGaussian.Renyi2 {
		t.Fatalf("explicit reference diverges from Gaussian form: %s vs %s", direct, viaGaussian)
	}
	if !direct.Pass(0.001, 1.01) {
		t.Fatalf("true reference rejected: %s", direct)
	}
	// A reference that redistributes 10% of the central mass must fail.
	warped := append([]float64(nil), probs...)
	center := -lo
	delta := 0.1 * warped[center]
	warped[center] -= delta
	warped[center+1] += delta
	if g := GOFAgainst(samples, lo, warped); g.Pass(0.001, 1.01) {
		t.Fatalf("warped reference accepted: %s", g)
	}
	// A sample below the window is an immediate fail.
	outlied := append(append([]int(nil), samples...), lo-5)
	if g := GOFAgainst(outlied, lo, append([]float64(nil), probs...)); !math.IsInf(g.Stat, 1) {
		t.Fatalf("window outlier not flagged: %s", g)
	}
}

func TestMergeTailsRespectsMinimumExpectation(t *testing.T) {
	g := ChiSquareGaussian([]int{0, 1, -1, 0, 2, -2, 0, 1, -1, 0}, 1.5, 0)
	// 10 samples: every surviving bin must expect ≥ 5... which forces
	// nearly everything to merge; the harness must stay well-defined.
	if g.Bins < 1 || g.DF < 0 {
		t.Fatalf("degenerate merge: %+v", g)
	}
}
