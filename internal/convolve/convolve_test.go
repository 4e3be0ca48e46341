package convolve

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"ctgauss/internal/ctcheck"
)

// testSampler builds one shared sampler over the default base set (the
// base circuits take ~100ms to compile; every test reuses them through
// the shared registry anyway, but sharing the sampler also shares shard
// stream state so the statistical tests see one long deterministic run).
var (
	testOnce     sync.Once
	testShared   *Sampler
	testSetupErr error
)

func shared(t *testing.T) *Sampler {
	t.Helper()
	testOnce.Do(func() {
		testShared, testSetupErr = New(Config{Shards: 2, Seed: []byte("convolve-test-seed")})
	})
	if testSetupErr != nil {
		t.Fatal(testSetupErr)
	}
	return testShared
}

func TestPlanDominatesTarget(t *testing.T) {
	s := shared(t)
	for _, sigma := range []float64{0.95, 1.2771, 2, 2.0001, 2.9, 3.3, 6.15543, 17.5, 100, 1024, 4096} {
		p, err := s.Plan(sigma)
		if err != nil {
			t.Fatalf("σ=%g: %v", sigma, err)
		}
		if p.SigmaP < sigma {
			t.Fatalf("σ=%g: proposal σ_p=%g does not dominate", sigma, p.SigmaP)
		}
		// σ_p must be consistent with the flattened terms.
		var varSum float64
		for _, term := range p.Terms {
			varSum += float64(term.Coeff*term.Coeff) * term.BaseSigma * term.BaseSigma
		}
		if want := math.Sqrt(varSum); math.Abs(p.SigmaP-want) > 1e-6 {
			t.Fatalf("σ=%g: σ_p=%g inconsistent with terms (want %g): %+v", sigma, p.SigmaP, want, p.Terms)
		}
		// Overshoot stays bounded: acceptance ≈ σ/(2σ_p) must not
		// collapse anywhere in the served range.
		if limit := math.Max(2.9, 1.45*sigma); p.SigmaP > limit {
			t.Fatalf("σ=%g: σ_p=%g overshoots (limit %g): %+v", sigma, p.SigmaP, limit, p.Terms)
		}
		if p.Draws() > 48 {
			t.Fatalf("σ=%g: %d draws per trial exceeds the menu cap", sigma, p.Draws())
		}
	}
	// σ below the fine base: fine member alone must dominate.
	if p, _ := s.Plan(1.2); p.Draws() != 1 || p.SigmaP != 2 {
		t.Fatalf("σ=1.2 plan = %+v, want single-draw σ_p=2", p)
	}
}

// TestMenuRespectsSmoothing walks every internal node of every selected
// recipe and checks the soundness condition of the convolution ladder:
// the coarse coefficient never exceeds the right (fine) subtree's width,
// so no coarse grid is left unsmoothed — the structural property behind
// the statistical acceptance below.
func TestMenuRespectsSmoothing(t *testing.T) {
	s := shared(t)
	var walk func(rc *recipe) bool
	walk = func(rc *recipe) bool {
		if rc.left == nil {
			return true
		}
		if float64(rc.a) > rc.right.width {
			return false
		}
		return walk(rc.left) && walk(rc.right)
	}
	for _, rc := range s.menu {
		if !walk(rc) {
			t.Fatalf("recipe width=%g violates the a ≤ w_R smoothing condition", rc.width)
		}
	}
	if len(s.menu) < 50 {
		t.Fatalf("menu has only %d recipes; granularity would be poor", len(s.menu))
	}
}

func TestCtExpThresholdMatchesExp(t *testing.T) {
	for _, tc := range []float64{0, 1e-12, 0.01, 0.25, math.Ln2, 1, 2.5, 7, 20, 43, 60, 200, 900, 5000} {
		got := float64(ctExpThreshold(tc))
		want := math.Exp(-tc) * (1 << 63)
		// The 2^−q shift floors at the output scale, so the threshold
		// carries ±1 output units of error on top of the polynomial's
		// ~1e-13 relative error — both are ≤ 2⁻⁶³ absolute probability.
		if math.Abs(got-want) > math.Max(2, want*1e-12) {
			t.Fatalf("t=%g: thr=%g vs exp=%g", tc, got, want)
		}
	}
	if got := ctExpThreshold(0); got != 1<<63 {
		t.Fatalf("thr(0) = %d, want 2^63", got)
	}
	// Tiny negative inputs (float cancellation residue) clamp to 1.
	if got := ctExpThreshold(-1e-13); got != 1<<63 {
		t.Fatalf("thr(-1e-13) = %d, want 2^63", got)
	}
}

// refLane is the straightforward branchy implementation of the trial the
// branch-free path must agree with.
func refLane(p *plan, r float64, x int64, coin uint64) (int64, float64) {
	v := x
	if v < 0 {
		v = -v
	}
	var z int64
	if coin&1 == 1 {
		z = 1 + v
	} else {
		z = -v
	}
	zf := float64(z) - r
	tt := zf*zf*p.invTwoSigmaSq - float64(v*v)*p.invTwoSigmaPSq
	if tt < 0 {
		tt = 0
	}
	pAcc := math.Exp(-tt)
	if v >= 1 {
		pAcc /= 2
	}
	return z, pAcc
}

func TestEvalLaneMatchesReference(t *testing.T) {
	s := shared(t)
	rng := rand.New(rand.NewSource(11))
	for _, sigma := range []float64{1.4, 2, 3.3, 17.5, 300} {
		p := s.planOf(sigma)
		span := int64(13 * p.SigmaP)
		for _, r := range []float64{0, 0.375, 0.999} {
			for trial := 0; trial < 2000; trial++ {
				x := rng.Int63n(2*span+1) - span
				coin := rng.Uint64()
				z, acc := evalLane(&p, r, x, coin)
				zRef, pAcc := refLane(&p, r, x, coin)
				if z != zRef {
					t.Fatalf("σ=%g r=%g: z=%d, reference %d", sigma, r, z, zRef)
				}
				v := ctAbs64(x)
				gotThr := float64(ctExpThreshold((float64(z)-r)*(float64(z)-r)*p.invTwoSigmaSq-float64(v*v)*p.invTwoSigmaPSq)) / (1 << 63)
				if v >= 1 {
					gotThr /= 2
				}
				if math.Abs(gotThr-pAcc) > 1e-9 {
					t.Fatalf("σ=%g r=%g: acceptance %g, reference %g", sigma, r, gotThr, pAcc)
				}
				// The accept bit must be the threshold comparison.
				// Float/fixed boundary disagreements are possible in
				// principle but astronomically unlikely for random coins;
				// flag them distinctly so a real logic bug is not
				// mistaken for one.
				wantAcc := uint64(0)
				if float64(coin>>1) < pAcc*(1<<63) {
					wantAcc = 1
				}
				if acc != wantAcc && math.Abs(float64(coin>>1)-pAcc*(1<<63)) > 16 {
					t.Fatalf("σ=%g r=%g x=%d: accept=%d, reference %d", sigma, r, x, acc, wantAcc)
				}
			}
		}
	}
}

// TestTrialWorkIsConstant verifies the constant-time property of the
// combine/round path deterministically: randomness consumption is an
// exact function of the trial count — 64 coin bits per trial, one fine
// (and, when the plan convolves, one coarse) base sample per trial —
// regardless of which candidates were accepted.  Together with the
// branch-free lane evaluation (asserted against the reference above and
// timed below), this is the no-data-dependent-branches check: any
// value-dependent skip or retry inside the path would break the exact
// bit accounting.
func TestTrialWorkIsConstant(t *testing.T) {
	s, err := New(Config{Shards: 1, Seed: []byte("work-trace")})
	if err != nil {
		t.Fatal(err)
	}
	sh := s.shards[0]
	var w ctcheck.WorkTrace
	for round := 0; round < 50; round++ {
		coinsBefore := sh.coins.BitsRead
		trialsBefore := s.trials.Load()
		dst := make([]int, 37)
		if err := s.NextBatch(3.3, 0.375, dst); err != nil {
			t.Fatal(err)
		}
		coinBits := sh.coins.BitsRead - coinsBefore
		trials := s.trials.Load() - trialsBefore
		if coinBits != 64*trials {
			t.Fatalf("round %d: %d coin bits for %d trials, want exactly 64 per trial", round, coinBits, trials)
		}
		w.Record(coinBits / trials)
	}
	if !w.Constant() {
		t.Fatal("per-trial coin consumption varies")
	}
	// Base-sample consumption: every trial draws exactly one sample per
	// plan term, so each base engine's consumption ledger must equal
	// trials × (terms on that base) — an exact accounting no
	// value-dependent skip or retry could satisfy.
	p := s.planOf(3.3)
	perBase := make(map[int]uint64)
	for _, term := range p.Terms {
		perBase[term.Base] += s.trials.Load()
	}
	for bi, want := range perBase {
		if got := s.engines[bi].Ledger().ItemsConsumed; got != want {
			t.Fatalf("base %d popped %d samples for %d trials × %d terms (want %d)",
				bi, got, s.trials.Load(), len(p.Terms), want)
		}
	}
	if got := s.accepted.Load(); got < uint64(50*37) {
		t.Fatalf("accepted %d < samples handed out %d", got, 50*37)
	}
	if rate := s.Stats().AcceptRate(); rate < 0.2 || rate > 0.75 {
		t.Fatalf("accept rate %.3f outside the plausible band for σ=3.3", rate)
	}
}

// TestCombineRoundTimingDudect applies the dudect methodology to the
// pure combine/round function: class A feeds a fixed (worst-case
// magnitude) input triple, class B random triples.  A data-dependent
// branch or table lookup in the path would separate the classes.  The
// threshold is generous (wall clock under a GC runtime is noisy — see
// TestCompareTimingSmoke in ctcheck); the deterministic work ledger
// above is the stronger evidence.
func TestCombineRoundTimingDudect(t *testing.T) {
	s := shared(t)
	p := s.planOf(17.5)
	rng := rand.New(rand.NewSource(7))
	// Pregenerate both classes' inputs so the measured closures execute
	// the identical code path over identical memory layouts — the only
	// difference is the values the round path sees.
	const n = 1024
	span := int64(13 * p.SigmaP)
	fixedX, randX := make([]int64, n), make([]int64, n)
	fixedC, randC := make([]uint64, n), make([]uint64, n)
	for i := 0; i < n; i++ {
		fixedX[i], fixedC[i] = span, 0xDEADBEEFCAFEF00D
		randX[i], randC[i] = rng.Int63n(2*span+1)-span, rng.Uint64()
	}
	var sink int64
	mk := func(xs []int64, cs []uint64) func() {
		i := 0
		return func() {
			z, acc := evalLane(&p, 0.375, xs[i&(n-1)], cs[i&(n-1)])
			sink += z + int64(acc)
			i++
		}
	}
	r := ctcheck.CompareTiming(mk(fixedX, fixedC), mk(randX, randC),
		ctcheck.Options{Measurements: 600, InnerReps: 64})
	if math.Abs(r.T) > 50 {
		t.Fatalf("combine/round path timing separates input classes: %s", r)
	}
	_ = sink
}

// TestStatisticalAcceptance is the subsystem's acceptance gate: convolved
// outputs for (σ, μ) pairs that no compiled circuit serves must pass the
// chi-square / Rényi harness against the ideal D_{ℤ,σ,μ}.  All pairs are
// outside the base set; one uses a non-zero center, one a non-integer σ
// below the coarse members, one a σ far above every member.
func TestStatisticalAcceptance(t *testing.T) {
	s := shared(t)
	pairs := []struct {
		sigma, mu float64
		n         int
	}{
		{3.3, 0, 150000},
		{1.4142, -2.625, 150000},
		{17.5, 0.375, 150000},
		{42.7, -0.5, 120000},
	}
	for _, pc := range pairs {
		dst := make([]int, pc.n)
		if err := s.NextBatch(pc.sigma, pc.mu, dst); err != nil {
			t.Fatal(err)
		}
		g := ctcheck.ChiSquareGaussian(dst, pc.sigma, pc.mu)
		t.Logf("σ=%g μ=%g: %s", pc.sigma, pc.mu, g)
		if !g.Pass(0.001, 1.01) {
			t.Fatalf("σ=%g μ=%g: convolved output fails the acceptance harness: %s", pc.sigma, pc.mu, g)
		}
	}
}

func TestNextBatchFillsEveryLength(t *testing.T) {
	s := shared(t)
	for _, n := range []int{1, 3, 63, 64, 65, 257} {
		dst := make([]int, n)
		for i := range dst {
			dst[i] = 1 << 40 // sentinel no sampler output can reach
		}
		if err := s.NextBatch(2.5, 0.25, dst); err != nil {
			t.Fatal(err)
		}
		for i, v := range dst {
			if v == 1<<40 {
				t.Fatalf("n=%d: position %d left unfilled", n, i)
			}
		}
	}
	if _, err := s.Next(2.5, -1.75); err != nil {
		t.Fatal(err)
	}
}

func TestRequestValidation(t *testing.T) {
	s := shared(t)
	for _, tc := range []struct{ sigma, mu float64 }{
		{0.1, 0}, {-3, 0}, {math.NaN(), 0}, {math.Inf(1), 0}, {5000, 0},
		{3, math.NaN()}, {3, math.Inf(-1)}, {3, 1e18},
	} {
		if err := s.NextBatch(tc.sigma, tc.mu, make([]int, 4)); err == nil {
			t.Fatalf("σ=%g μ=%g: expected a validation error", tc.sigma, tc.mu)
		}
	}
	if _, err := New(Config{Bases: []string{"0.5"}}); err == nil {
		t.Fatal("fine base below the smoothing floor must be rejected")
	}
	if _, err := New(Config{Bases: []string{"nope"}}); err == nil {
		t.Fatal("non-decimal base must be rejected")
	}
}

// TestNarrowBaseSetClampsMaxSigma: a base set whose ladder menu cannot
// reach the configured MaxSigma must clamp the admissible range, so a
// request the menu cannot dominate is rejected rather than served by a
// narrower proposal (which would emit the wrong distribution).
func TestNarrowBaseSetClampsMaxSigma(t *testing.T) {
	s, err := New(Config{Bases: []string{"1.2"}, Shards: 1, Precision: 32, Seed: []byte("narrow")})
	if err != nil {
		t.Fatal(err)
	}
	_, max := s.Bounds()
	if max >= DefaultMaxSigma {
		t.Fatalf("σ=1.2 base set claims to serve up to %g; its ladder cannot", max)
	}
	if err := s.NextBatch(max*2, 0, make([]int, 4)); err == nil {
		t.Fatalf("σ=%g beyond the menu's reach (%g) must be rejected", max*2, max)
	}
	// The clamped range itself must still be served with a dominating
	// proposal.
	p, err := s.Plan(max * 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if p.SigmaP < max*0.99 {
		t.Fatalf("plan σ_p=%g does not dominate σ=%g", p.SigmaP, max*0.99)
	}
}

func TestConcurrentDraws(t *testing.T) {
	s := shared(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sigma := 2.1 + float64(g)*0.7
			dst := make([]int, 100)
			for i := 0; i < 20; i++ {
				if err := s.NextBatch(sigma, float64(g)*0.125, dst); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if st := s.Stats(); st.Trials == 0 {
		t.Fatalf("stats not accumulating: %+v", st)
	}
}

func TestDeterministicStreams(t *testing.T) {
	mk := func() *Sampler {
		s, err := New(Config{Shards: 2, Seed: []byte("determinism")})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := mk(), mk()
	da, db := make([]int, 500), make([]int, 500)
	if err := a.NextBatch(5.5, 0.25, da); err != nil {
		t.Fatal(err)
	}
	if err := b.NextBatch(5.5, 0.25, db); err != nil {
		t.Fatal(err)
	}
	for i := range da {
		if da[i] != db[i] {
			t.Fatalf("same seed diverges at %d: %d vs %d", i, da[i], db[i])
		}
	}
	if a.BitsUsed() != b.BitsUsed() {
		t.Fatalf("same seed, different randomness ledgers: %d vs %d", a.BitsUsed(), b.BitsUsed())
	}
}

// TestAsyncMatchesSyncConvolve is the cross-engine bit-identity
// property test for the convolve path: with the same seed, the
// asynchronous engine (background base-draw producers) must emit
// exactly the stream of the synchronous engine for every request
// pattern, and the randomness ledgers must agree — prefetch only moves
// evaluation latency, never the stream.
func TestAsyncMatchesSyncConvolve(t *testing.T) {
	mk := func(prefetch int) *Sampler {
		s, err := New(Config{
			Bases:     []string{"2"},
			Precision: 48,
			Shards:    2,
			Seed:      []byte("engine-identity"),
			Prefetch:  prefetch,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	sync_, async := mk(-1), mk(3)
	defer sync_.Close()
	defer async.Close()

	rng := rand.New(rand.NewSource(99))
	pairs := []struct{ sigma, mu float64 }{{2, 0}, {3.7, 0.25}, {11, -1.5}}
	for i := 0; i < 40; i++ {
		pc := pairs[i%len(pairs)]
		n := 1 + rng.Intn(150)
		a, b := make([]int, n), make([]int, n)
		if err := sync_.NextBatch(pc.sigma, pc.mu, a); err != nil {
			t.Fatal(err)
		}
		if err := async.NextBatch(pc.sigma, pc.mu, b); err != nil {
			t.Fatal(err)
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("request %d (σ=%g μ=%g): sync %d vs async %d at %d",
					i, pc.sigma, pc.mu, a[j], b[j], j)
			}
		}
	}
	if sb, ab := sync_.BitsUsed(), async.BitsUsed(); sb != ab {
		t.Fatalf("ledger diverges: sync %d bits, async %d bits", sb, ab)
	}
}
