package acceptance

import (
	"fmt"
	"math"
	"math/rand"

	"ctgauss/internal/bitslice"
	"ctgauss/internal/convolve"
	"ctgauss/internal/core"
	"ctgauss/internal/ctcheck"
	"ctgauss/internal/prng"
	"ctgauss/internal/sampler"
)

// CTOptions configures the budgeted constant-time pass.
type CTOptions struct {
	// Sigmas are the compiled configurations to probe (default: every
	// registry-served σ on the full pass, the first on smoke).
	Sigmas []string
	// N and TailCut fix the compiled configuration (defaults 128 / 13 —
	// the paper's Falcon setting).
	N       int
	TailCut float64
	// Measurements is the dudect sample count per class (default 2000
	// full, 600 smoke).
	Measurements int
	// Smoke budgets the pass for PR CI.
	Smoke bool
	// Threshold is the gated |t| bound (default 50).  Wall clock under a
	// GC runtime is far noisier than dudect's bare-metal 4.5, so the
	// gate only catches gross class separation; the deterministic
	// work-count ledgers are the exact evidence.
	Threshold float64
	// Logf, when set, receives one line per verdict.
	Logf func(format string, args ...any)
}

func (o CTOptions) normalize() CTOptions {
	if len(o.Sigmas) == 0 {
		o.Sigmas = []string{"2", "6.15543"}
		if o.Smoke {
			o.Sigmas = o.Sigmas[:1]
		}
	}
	if o.N == 0 {
		o.N = 128
	}
	if o.TailCut == 0 {
		o.TailCut = 13
	}
	if o.Measurements == 0 {
		if o.Smoke {
			o.Measurements = 600
		} else {
			o.Measurements = 2000
		}
	}
	if o.Threshold == 0 {
		o.Threshold = 50
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// RunCT runs the dudect timing pass and the deterministic work-count
// pass over the bitsliced evaluation, the CDT baselines, and the
// convolve combine/round path.
func RunCT(opt CTOptions) (timing []TimingResult, work []WorkResult, err error) {
	opt = opt.normalize()

	dudect := func(name string, gated bool, note string, classA, classB func(), inner int) {
		r := ctcheck.CompareTiming(classA, classB,
			ctcheck.Options{Measurements: opt.Measurements, InnerReps: inner})
		tr := TimingResult{
			Name: name, T: r.T, TRaw: r.TRaw, NA: r.NA, NB: r.NB,
			Threshold: opt.Threshold, Gated: gated,
			Pass: math.Abs(r.T) <= opt.Threshold,
			Note: note,
		}
		timing = append(timing, tr)
		opt.Logf("  timing %-28s t=%+8.2f (raw %+8.2f) gated=%-5v pass=%v",
			name, tr.T, tr.TRaw, gated, tr.Pass)
	}

	for _, sig := range opt.Sigmas {
		b, berr := core.Build(core.Config{Sigma: sig, N: opt.N, TailCut: opt.TailCut, Min: core.MinimizeExact})
		if berr != nil {
			return nil, nil, fmt.Errorf("acceptance: ct: building σ=%s: %w", sig, berr)
		}

		// dudect over the bitsliced evaluation: the two classes differ
		// only in PRNG seed, i.e. in every secret the circuit handles.
		mkBit := func(seed string) func() {
			s := b.NewWideSampler(prng.MustChaCha20([]byte(seed)), bitslice.Width)
			dst := make([]int, 64)
			return func() { s.NextBatch(dst) }
		}
		dudect("bitsliced σ="+sig, true, "classes: two fixed PRNG seeds",
			mkBit("acceptance-class-A"), mkBit("acceptance-class-B"), 16)

		// The CDT baselines published alongside the paper's comparison:
		// linear-scan is constant-time by construction (gated), byte-scan
		// is the known-leaky baseline (informational).
		mkCDT := func(ctor func() interface{ Next() int }) func() {
			s := ctor()
			return func() {
				for i := 0; i < 64; i++ {
					s.Next()
				}
			}
		}
		dudect("cdt-linear-ct σ="+sig, true, "constant-time baseline",
			mkCDT(func() interface{ Next() int } {
				return sampler.NewLinearCDT(b.Table, prng.MustChaCha20([]byte("acceptance-class-A")))
			}),
			mkCDT(func() interface{ Next() int } {
				return sampler.NewLinearCDT(b.Table, prng.MustChaCha20([]byte("acceptance-class-B")))
			}), 16)
		dudect("cdt-bytescan σ="+sig, false, "known-leaky baseline, informational",
			mkCDT(func() interface{ Next() int } {
				return sampler.NewByteScanCDT(b.Table, prng.MustChaCha20([]byte("acceptance-class-A")))
			}),
			mkCDT(func() interface{ Next() int } {
				return sampler.NewByteScanCDT(b.Table, prng.MustChaCha20([]byte("acceptance-class-B")))
			}), 16)

		// Work ledger: the bitsliced sampler must draw a bit-exact
		// constant amount of randomness per refill at both widths: the
		// paper's per-batch width 1 and the serving width.
		for _, width := range []int{1, bitslice.Width} {
			s := b.NewWideSampler(prng.MustChaCha20([]byte("acceptance-work")), width)
			var w ctcheck.WorkTrace
			prev := uint64(0)
			dst := make([]int, 64)
			for i := 0; i < 200; i++ {
				for j := 0; j < width; j++ {
					s.NextBatch(dst)
				}
				w.Record(s.BitsUsed() - prev)
				prev = s.BitsUsed()
			}
			wr := WorkResult{
				Name:     fmt.Sprintf("bitsliced σ=%s w=%d bits/refill", sig, width),
				Constant: w.Constant(), UnitsPerOp: w.Counts[0],
				Gated: true, Pass: w.Constant(),
			}
			work = append(work, wr)
			opt.Logf("  work   %-28s constant=%v units=%d", wr.Name, wr.Constant, wr.UnitsPerOp)
		}

		// Linear CDT: comparisons per sample must be constant.
		lin := sampler.NewLinearCDT(b.Table, prng.MustChaCha20([]byte("acceptance-work")))
		var wl ctcheck.WorkTrace
		for i := 0; i < 4096; i++ {
			before := lin.Steps
			lin.Next()
			wl.Record(lin.Steps - before)
		}
		work = append(work, WorkResult{
			Name:     "cdt-linear-ct σ=" + sig + " cmp/sample",
			Constant: wl.Constant(), UnitsPerOp: wl.Counts[0],
			Gated: true, Pass: wl.Constant(),
		})

		// Byte-scan CDT: the work-vs-|sample| correlation is the leak
		// signature this harness exists to catch — kept as the ungated
		// positive control proving the instrument sees real leaks.
		bs := sampler.NewByteScanCDT(b.Table, prng.MustChaCha20([]byte("acceptance-work")))
		var wb ctcheck.WorkTrace
		secret := make([]float64, 0, 4096)
		for i := 0; i < 4096; i++ {
			before := bs.Steps
			v := bs.Next()
			if v < 0 {
				v = -v
			}
			wb.Record(bs.Steps - before)
			secret = append(secret, float64(v))
		}
		work = append(work, WorkResult{
			Name:     "cdt-bytescan σ=" + sig + " cmp/sample",
			Constant: wb.Constant(), Correlation: wb.Correlation(secret),
			Gated: false, Pass: wb.Constant(),
			Note: "known-leaky baseline: correlation is the leak signature (positive control)",
		})
		opt.Logf("  work   %-28s constant=%v corr=%+.3f (positive control)",
			"cdt-bytescan σ="+sig, wb.Constant(), wb.Correlation(secret))
	}

	// Convolve combine/round path: class A a fixed worst-case-magnitude
	// (x, coin) pair, class B random pairs — a data-dependent branch or
	// lookup in the round path would separate them.
	cs, cerr := convolve.New(convolve.Config{Shards: 1, Seed: deriveSeed("ct/convolve")})
	if cerr != nil {
		return nil, nil, fmt.Errorf("acceptance: ct: building convolve sampler: %w", cerr)
	}
	defer cs.Close()
	for _, cell := range []struct{ sigma, mu float64 }{{17.5, 0.375}, {2.5, 0.5}} {
		probe, sigmaP, perr := cs.RoundProbe(cell.sigma, cell.mu)
		if perr != nil {
			return nil, nil, fmt.Errorf("acceptance: ct: round probe σ=%g: %w", cell.sigma, perr)
		}
		rng := rand.New(rand.NewSource(7))
		const n = 1024
		span := int64(13 * sigmaP)
		fixedX, randX := make([]int64, n), make([]int64, n)
		fixedC, randC := make([]uint64, n), make([]uint64, n)
		for i := 0; i < n; i++ {
			fixedX[i], fixedC[i] = span, 0xDEADBEEFCAFEF00D
			randX[i], randC[i] = rng.Int63n(2*span+1)-span, rng.Uint64()
		}
		var sink int64
		mkRound := func(xs []int64, cs []uint64) func() {
			i := 0
			return func() {
				z, acc := probe(xs[i&(n-1)], cs[i&(n-1)])
				sink += z + int64(acc)
				i++
			}
		}
		dudect(fmt.Sprintf("convolve-round σ=%g μ=%g", cell.sigma, cell.mu), true,
			"classes: fixed worst-case vs random (x, coin)",
			mkRound(fixedX, fixedC), mkRound(randX, randC), 64)
		_ = sink
		if opt.Smoke {
			break
		}
	}
	return timing, work, nil
}
