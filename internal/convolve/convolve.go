// Package convolve is the arbitrary-(σ, μ) sampling subsystem: a
// constant-time convolution layer over a small set of compiled base
// circuits.  The build pipeline compiles one branch-free circuit per
// fixed σ, so every new σ would otherwise pay a full DDG-enumeration and
// exact-minimization build; this package instead composes a fixed,
// compiled base set into samples for any requested standard deviation
// and center:
//
//  1. plan (plan.go): pick a Micciancio–Walter-style convolution ladder
//     — a tree of a·L + R combines over base draws, flattened to the
//     linear form Σ cᵢ·xᵢ — whose width dominates the target (σ_p ≥ σ)
//     while every node keeps its coarse grid inside its fine sibling's
//     smoothing range;
//  2. combine + round (lanes.go): fold the convolved proposal to a
//     bimodal candidate around the fractional center and accept with a
//     branch-free fixed-point threshold (ctexp.go) — constant-time
//     randomized rounding that reshapes the proposal to exactly
//     D_{ℤ,σ,μ}.
//
// Base draws come from sharded wide samplers over registry artifacts
// (one cache entry for the whole set, built in parallel), so refills
// stay 512-lane batched exactly as in ctgauss.Pool; the subsystem turns
// the build-once/serve-many stack into serve-anything without touching
// the per-σ pipeline.
//
// The public surface is ctgauss.NewArbitrary; internal/falcon routes its
// SamplerZ through this package behind the BaseConvolve flag, and
// internal/server exposes it at /v1/arbitrary and as the free-form-σ
// fallback of /v1/samples.
package convolve

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"ctgauss/internal/core"
	"ctgauss/internal/engine"
	"ctgauss/internal/gaussian"
	"ctgauss/internal/obs"
	"ctgauss/internal/prng"
	"ctgauss/internal/registry"
	"ctgauss/internal/sampler"
)

// DefaultBases is the default base set: the paper's two evaluation
// configurations, whose circuits ship pregenerated.
var DefaultBases = []string{"2", "6.15543"}

// ErrDegraded is returned by draws when every shard of a base engine is
// poisoned — all producers panicked and are restarting or dead.  While
// any shard is healthy, draws fail over to it transparently.
var ErrDegraded = errors.New("convolve: all shards poisoned")

// Default request bounds.  MinSigma keeps the dominating proposal's
// overshoot (and so the trial count) bounded; MaxSigma bounds the
// convolution coefficient.
const (
	DefaultMinSigma = 0.9
	DefaultMaxSigma = 4096
)

// laneBlock is the widest trial block evaluated under one shard lock —
// one 64-sample base batch per combined member.
const laneBlock = 64

// Config describes an arbitrary-(σ, μ) sampler.
type Config struct {
	// Bases are the decimal σ strings of the base set (default
	// DefaultBases).  The smallest member is the fine convolution
	// component and must be ≥ 1 (≈ the smoothing parameter of ℤ, so the
	// convolved proposal stays pointwise close to a Gaussian).
	Bases []string
	// Precision and TailCut configure the base circuits (defaults 128
	// and 13, the paper's Falcon setting).
	Precision int
	TailCut   float64
	// Shards is the concurrency width: each shard owns independent base
	// sampler streams and a coin stream (0 = NumCPU).
	Shards int
	// Seed keys the shard streams (fixed development default; production
	// must pass fresh randomness).
	Seed []byte
	// PRNG selects the generator: "chacha20", "shake256" or "aes-ctr".
	// Empty means prng.Serving(): "aes-ctr" where crypto/aes runs on
	// AES instructions, "chacha20" otherwise.
	PRNG string
	// Workers bounds the build parallelism of a cold base-set
	// compilation (0 = all CPUs); it never changes the artifacts.
	Workers int
	// MinSigma and MaxSigma bound admissible requests (defaults
	// DefaultMinSigma, DefaultMaxSigma).
	MinSigma, MaxSigma float64
	// Prefetch is the refill lookahead per (shard, base member) stream
	// on the engine runtime: 0 = engine.DefaultDepth, negative =
	// synchronous refill.  Per-stream draws are bit-identical at any
	// setting.
	Prefetch int
}

func (c Config) normalize() Config {
	if len(c.Bases) == 0 {
		c.Bases = DefaultBases
	}
	if c.Precision == 0 {
		c.Precision = 128
	}
	if c.TailCut == 0 {
		c.TailCut = gaussian.DefaultTailCut
	}
	if c.Shards <= 0 {
		c.Shards = runtime.NumCPU()
	}
	if c.Seed == nil {
		c.Seed = []byte("ctgauss-convolve-seed")
	}
	if c.PRNG == "" {
		c.PRNG = prng.Serving()
	}
	if c.MinSigma == 0 {
		c.MinSigma = DefaultMinSigma
	}
	if c.MaxSigma == 0 {
		c.MaxSigma = DefaultMaxSigma
	}
	return c
}

// shard owns one coin stream plus lane scratch; base draws come from
// the per-member engine rings at the shard's index.
type shard struct {
	mu    sync.Mutex
	coins *prng.BitReader

	xs [laneBlock]int64
	cw [laneBlock]uint64
	zs [laneBlock]int64
}

// Sampler draws from D_{ℤ,σ,μ} for any admissible (σ, μ).  Next and
// NextBatch are safe for any number of concurrent callers; requests
// round-robin across shards.
//
// Base draws run on the unified engine runtime: one engine per base
// member, with one refill ring per shard, so circuit evaluations
// prefetch on background producers exactly as in ctgauss.Pool while
// each (shard, base) stream keeps its synchronous draw order.  Call
// Close to stop the producers when done.
type Sampler struct {
	cfg        Config
	set        *registry.SetArtifact
	baseSigmas []float64
	menu       []*recipe // admissible ladder recipes, sorted by width
	terms      [][]term  // menu[i] flattened, shared by every plan it serves
	shards     []*shard
	engines    []*engine.Engine[int] // one per base member
	baseBits   []uint64              // random bits per refill, per base member
	ctr        atomic.Uint64

	trials   atomic.Uint64
	accepted atomic.Uint64
}

// New compiles (or loads) the base set as one registry artifact and
// builds the sharded sampler over it.
func New(cfg Config) (*Sampler, error) {
	cfg = cfg.normalize()
	cores := make([]core.Config, len(cfg.Bases))
	sigmas := make([]float64, len(cfg.Bases))
	fine := 0
	for i, b := range cfg.Bases {
		sf, err := strconv.ParseFloat(b, 64)
		if err != nil || sf <= 0 {
			return nil, fmt.Errorf("convolve: base σ %q is not a positive decimal", b)
		}
		sigmas[i] = sf
		if sf < sigmas[fine] {
			fine = i
		}
		cores[i] = core.Config{Sigma: b, N: cfg.Precision, TailCut: cfg.TailCut, Min: core.MinimizeExact, Workers: cfg.Workers}
	}
	if sigmas[fine] < 1 {
		return nil, fmt.Errorf("convolve: smallest base σ = %g < 1; the fine convolution component must exceed the smoothing parameter of ℤ", sigmas[fine])
	}
	set, err := registry.Shared().GetSet(cores)
	if err != nil {
		return nil, fmt.Errorf("convolve: building base set: %w", err)
	}
	menu, terms := buildMenu(sigmas, cfg.MaxSigma)
	// The admissible range is what the menu can dominate: a narrow base
	// set (small members bound the ladder coefficients) may top out
	// below the configured MaxSigma, and a request beyond the widest
	// recipe must be rejected — never served by a narrower proposal,
	// which would emit the wrong distribution.
	if widest := menu[len(menu)-1].width; cfg.MaxSigma > widest {
		cfg.MaxSigma = widest
	}
	s := &Sampler{cfg: cfg, set: set, baseSigmas: sigmas, menu: menu, terms: terms, shards: make([]*shard, cfg.Shards)}
	for i := range s.shards {
		src, err := prng.NewSource(cfg.PRNG, shardSeed(cfg.Seed, i, coinRole))
		if err != nil {
			return nil, err
		}
		s.shards[i] = &shard{coins: prng.NewBitReader(src)}
	}
	// One engine per base member: shard i of every engine holds that
	// shard's independent stream for the member, refilled a native-width
	// evaluation (width×64 lanes) at a time ahead of demand.
	depth := cfg.Prefetch
	switch {
	case depth == 0:
		depth = engine.DefaultDepth
	case depth < 0:
		depth = 0
	}
	s.engines = make([]*engine.Engine[int], len(set.Members))
	s.baseBits = make([]uint64, len(set.Members))
	// Base evaluation width follows the active SIMD backend; captured once
	// here so every member's stream, refill quantum, and bit ledger agree
	// even if a test flips the backend mid-lifetime.
	baseWidth := sampler.NativeWidth()
	for bi, art := range set.Members {
		art := art
		bi := bi
		mkWide := func(i int) (sampler.BatchSampler, error) {
			src, err := prng.NewSource(cfg.PRNG, shardSeed(cfg.Seed, i, bi))
			if err != nil {
				return nil, err
			}
			return art.NewWideSampler(src, baseWidth), nil
		}
		wides := make([]sampler.BatchSampler, cfg.Shards)
		for i := range wides {
			w, err := mkWide(i)
			if err != nil {
				s.Close()
				return nil, err
			}
			wides[i] = w
		}
		s.baseBits[bi] = uint64(art.Program.NumInputs+1) * 64 * uint64(baseWidth)
		s.engines[bi] = engine.New(engine.Config{
			Shards:   cfg.Shards,
			SlotSize: baseWidth * 64,
			Depth:    depth,
			// Reset rebuilds the shard's wide sampler from its
			// domain-separated seed after a recovered refill panic, so the
			// (shard, base) stream resumes deterministically from its start.
			// Runs with fill's exclusivity, so the assignment is race-free.
			Reset: func(sh int) {
				if fresh, err := mkWide(sh); err == nil {
					wides[sh] = fresh
				}
			},
		}, func(sh int, dst []int) {
			for off := 0; off < len(dst); off += 64 {
				wides[sh].NextBatch(dst[off : off+64])
			}
		})
	}
	return s, nil
}

// Close stops the base engines' producer goroutines.  Draws concurrent
// with or after Close fail with engine.ErrClosed; serving layers drain
// first so the error is never served.
func (s *Sampler) Close() {
	for _, e := range s.engines {
		if e != nil {
			e.Close()
		}
	}
}

// coinRole is the domain-separation role index of a shard's coin stream
// (base streams use their base-set index).
const coinRole = 0xFFFF

// shardSeed derives the stream seed for (shard, role) from the master
// seed with domain separation, mirroring ctgauss.Pool's derivation.
func shardSeed(seed []byte, shard, role int) []byte {
	h := sha256.New()
	h.Write([]byte("ctgauss/convolve/shard"))
	var idx [8]byte
	binary.BigEndian.PutUint32(idx[:4], uint32(shard))
	binary.BigEndian.PutUint32(idx[4:], uint32(role))
	h.Write(idx[:])
	h.Write(seed)
	return h.Sum(nil)
}

// check validates one request.
func (s *Sampler) check(sigma, mu float64) error {
	if math.IsNaN(sigma) || sigma < s.cfg.MinSigma || sigma > s.cfg.MaxSigma {
		return fmt.Errorf("convolve: σ = %g outside the served range [%g, %g]", sigma, s.cfg.MinSigma, s.cfg.MaxSigma)
	}
	if math.IsNaN(mu) || math.Abs(mu) > 1<<52 {
		return fmt.Errorf("convolve: center μ = %g is not a representable center", mu)
	}
	return nil
}

// Next returns one sample from D_{ℤ,σ,μ}.  Safe for concurrent use.
func (s *Sampler) Next(sigma, mu float64) (int, error) {
	var one [1]int
	if err := s.NextBatch(sigma, mu, one[:]); err != nil {
		return 0, err
	}
	return one[0], nil
}

// NextBatch fills all of dst with independent samples from D_{ℤ,σ,μ}.
// Unlike the fixed-64 granularity of Sampler.NextBatch, any length is
// served exactly (accepted candidates are compacted, so nothing rounds
// to batch boundaries).  Safe for concurrent use.
func (s *Sampler) NextBatch(sigma, mu float64, dst []int) error {
	return s.NextBatchContext(nil, sigma, mu, dst)
}

// NextBatchContext is NextBatch with cancellation: ctx unblocks a draw
// waiting on a slow base refill and is checked between trial blocks, so
// a cancelled request stops consuming base streams promptly.  A nil ctx
// never cancels.  On any error dst's contents are undefined.
//
// A poisoned base-engine shard (its producer panicked and is restarting)
// is failed over: the trial block retries on the next shard, trying each
// once; only when every shard is poisoned does the draw fail, with
// ErrDegraded.
func (s *Sampler) NextBatchContext(ctx context.Context, sigma, mu float64, dst []int) error {
	if err := s.check(sigma, mu); err != nil {
		return err
	}
	if len(dst) == 0 {
		return nil
	}
	p := s.planOf(sigma)
	fl := math.Floor(mu)
	r := mu - fl
	off := int64(fl)

	written := 0
	for written < len(dst) {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		// Size the trial block to the remaining need (acceptance is at
		// least ~σ/(2σ_p) ≥ ~1/4, so 4× covers most blocks) without
		// exceeding one base batch.
		w := 4 * (len(dst) - written)
		if w > laneBlock {
			w = laneBlock
		}
		if w < 8 {
			w = 8
		}
		start := s.pick()
		var n int
		var err error
		for k := 0; k < len(s.shards); k++ {
			n, err = s.tryBlock(ctx, (start+k)%len(s.shards), &p, r, off, w, dst[written:])
			if err == nil || !errors.Is(err, engine.ErrShardPoisoned) {
				break
			}
		}
		if err != nil {
			if errors.Is(err, engine.ErrShardPoisoned) {
				return ErrDegraded
			}
			return err
		}
		written += n
	}
	return nil
}

// tryBlock evaluates one trial block of width w on shard si, compacting
// accepted samples into dst, and returns how many it wrote.  A poisoned
// base shard surfaces as engine.ErrShardPoisoned so the caller can fail
// over; base samples already drawn for the abandoned block are discarded
// (fault paths make no bit-identity promise).
func (s *Sampler) tryBlock(ctx context.Context, si int, p *plan, r float64, off int64, w int, dst []int) (int, error) {
	sh := s.shards[si]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for i := 0; i < w; i++ {
		sh.xs[i] = 0
	}
	// One plan term's contribution per pass: pop w samples of the
	// term's base stream (zero-copy slices of the engine ring) and
	// add them into the proposal scaled by the coefficient.  The trip
	// count is fixed by (w, plan) and the per-value arithmetic is
	// branch-free, as in the pre-engine draw loop.
	for _, term := range p.Terms {
		coeff := term.Coeff
		j := 0
		if err := s.engines[term.Base].ConsumeFrom(ctx, si, w, func(chunk []int) {
			for _, v := range chunk {
				sh.xs[j] += coeff * int64(v)
				j++
			}
		}); err != nil {
			return 0, err
		}
	}
	// Combine/round span: the ladder's own arithmetic — rounding
	// coins, constant-time lane evaluation, compaction — as opposed to
	// the base draws above, which attribute to the engine stages.  The
	// hook reads only the clock, never the coin stream.
	var tr *obs.Trace
	if obs.TraceEnabled() {
		tr = obs.FromContext(ctx)
	}
	t0 := tr.Now()
	sh.coins.FillWords(sh.cw[:w])
	mask := evalLanes(p, r, sh.xs[:w], sh.cw[:w], sh.zs[:w], w)
	// Compaction: the only data-dependent control flow, and it
	// depends only on accept bits — see the timing argument in
	// lanes.go.
	n := 0
	for i := 0; i < w && n < len(dst); i++ {
		if mask>>uint(i)&1 == 1 {
			dst[n] = int(sh.zs[i] + off)
			n++
		}
	}
	tr.End(obs.StageCombine, t0)
	s.trials.Add(uint64(w))
	s.accepted.Add(uint64(bits.OnesCount64(mask)))
	return n, nil
}

// pick selects the next shard round-robin.  Unlike ctgauss.Pool's
// striped picker, this stays a single deterministic counter: the HTTP
// bit-identity acceptance test reconstructs the served stream with a
// local sampler, which requires sequential requests to visit shards in
// a reproducible order.
func (s *Sampler) pick() int {
	return int(s.ctr.Add(1) % uint64(len(s.shards)))
}

// BitsUsed reports total random bits consumed by the served stream
// across all shard streams (base samplers and rounding coins).  Base
// bits derive from the engine ledger's started-refill count — exactly
// the evaluations the synchronous path would have run — so the value is
// independent of producer lookahead and deterministic for a
// deterministic caller.
func (s *Sampler) BitsUsed() uint64 {
	var total uint64
	for _, sh := range s.shards {
		sh.mu.Lock()
		total += sh.coins.BitsRead
		sh.mu.Unlock()
	}
	for bi, e := range s.engines {
		total += e.Ledger().RefillsStarted * s.baseBits[bi]
	}
	return total
}

// PlanTerm is one draw of a plan's ladder: Coeff × a sample of the base
// member with standard deviation BaseSigma.
type PlanTerm struct {
	BaseSigma float64
	Coeff     int64
}

// PlanInfo describes how one σ is served (diagnostics and benchmarks).
type PlanInfo struct {
	Sigma  float64    // requested σ
	SigmaP float64    // dominating proposal width
	Terms  []PlanTerm // base draws of one trial, in draw order
}

// Draws returns the base draws per trial.
func (pi PlanInfo) Draws() int { return len(pi.Terms) }

// Plan reports the convolution plan that serves sigma.
func (s *Sampler) Plan(sigma float64) (PlanInfo, error) {
	if err := s.check(sigma, 0); err != nil {
		return PlanInfo{}, err
	}
	p := s.planOf(sigma)
	pi := PlanInfo{Sigma: p.Sigma, SigmaP: p.SigmaP}
	for _, t := range p.Terms {
		pi.Terms = append(pi.Terms, PlanTerm{BaseSigma: s.baseSigmas[t.Base], Coeff: t.Coeff})
	}
	return pi, nil
}

// RoundProbe exposes the pure combine/round lane evaluation for the
// acceptance harness's dudect pass: the returned function folds one
// convolved proposal x with one 64-bit coin word through the plan
// serving sigma at fractional center r = μ − ⌊μ⌋, returning the
// candidate and its accept bit.  It performs no draws and touches no
// shard state, so a timing harness can feed it fixed-vs-random input
// classes — exactly the secret-dependent values a leaky round path
// would betray — without rejection-loop noise.  SigmaP is the plan's
// dominating proposal width, which bounds the admissible |x|.
func (s *Sampler) RoundProbe(sigma, mu float64) (probe func(x int64, coin uint64) (z int64, accept uint64), sigmaP float64, err error) {
	if err := s.check(sigma, mu); err != nil {
		return nil, 0, err
	}
	p := s.planOf(sigma)
	r := mu - math.Floor(mu)
	return func(x int64, coin uint64) (int64, uint64) {
		return evalLane(&p, r, x, coin)
	}, p.SigmaP, nil
}

// Stats is a snapshot of the sampler's serving counters.
type Stats struct {
	Bases      []string // base-set σ strings
	BaseSigmas []float64
	Shards     int
	FromCache  bool   // base set loaded from the registry's disk cache
	Trials     uint64 // combine/round trials evaluated
	Accepted   uint64 // trials accepted (≥ samples handed out)
}

// AcceptRate returns Accepted/Trials (0 before any trial).
func (st Stats) AcceptRate() float64 {
	if st.Trials == 0 {
		return 0
	}
	return float64(st.Accepted) / float64(st.Trials)
}

// Stats returns a snapshot of the serving counters.
func (s *Sampler) Stats() Stats {
	return Stats{
		Bases:      append([]string(nil), s.cfg.Bases...),
		BaseSigmas: append([]float64(nil), s.baseSigmas...),
		Shards:     len(s.shards),
		FromCache:  s.set.FromDisk,
		Trials:     s.trials.Load(),
		Accepted:   s.accepted.Load(),
	}
}

// Bounds returns the admissible σ range.
func (s *Sampler) Bounds() (min, max float64) { return s.cfg.MinSigma, s.cfg.MaxSigma }

// Health merges the per-shard fault-isolation state across the base
// engines: shard i is poisoned (or dead) if it is poisoned (dead) in any
// member's engine — a trial block needs every term's base stream, so one
// poisoned member makes the whole shard unusable for draws.  Restart and
// discard counts sum across members.
func (s *Sampler) Health() []engine.ShardHealth {
	merged := make([]engine.ShardHealth, len(s.shards))
	for _, e := range s.engines {
		for i, h := range e.Health() {
			merged[i].Poisoned = merged[i].Poisoned || h.Poisoned
			merged[i].Dead = merged[i].Dead || h.Dead
			merged[i].Restarts += h.Restarts
			merged[i].DiscardedRefills += h.DiscardedRefills
		}
	}
	return merged
}

// Rings merges per-shard ring occupancy across the base engines:
// buffered refills, adaptive targets, and depths sum over members
// (shard i's figures cover every base stream that feeds its draws).
func (s *Sampler) Rings() []engine.RingStat {
	merged := make([]engine.RingStat, len(s.shards))
	for _, e := range s.engines {
		for i, rs := range e.Rings() {
			merged[i].Buffered += rs.Buffered
			merged[i].Target += rs.Target
			merged[i].Depth += rs.Depth
		}
	}
	return merged
}
