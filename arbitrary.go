package ctgauss

import (
	"context"

	"ctgauss/internal/convolve"
)

// ErrArbitraryDegraded is returned by Arbitrary draws when every shard
// is poisoned (see ErrPoolDegraded for the poisoning model).
var ErrArbitraryDegraded = convolve.ErrDegraded

// ArbitraryConfig controls an arbitrary-(σ, μ) sampler.  The zero value
// selects the documented defaults.
type ArbitraryConfig struct {
	// BaseSigmas are the decimal σ strings of the compiled base set
	// (default {"2", "6.15543"}, the paper's two evaluation
	// configurations).  The smallest member must be ≥ 1.
	BaseSigmas []string
	// Shards is the concurrency width (0 = NumCPU); each shard owns
	// independent base and coin streams.
	Shards int
	// Seed keys the streams (fixed development default; pass fresh
	// randomness in production, as with Pool).
	Seed []byte
	// PRNG selects the generator: "chacha20", "shake256" or "aes-ctr".
	// Empty means prng.Serving(), as for pools: "aes-ctr" where
	// crypto/aes runs on AES instructions, "chacha20" otherwise.
	PRNG string
	// Workers bounds the build parallelism of a cold base-set
	// compilation (0 = all CPUs).
	Workers int
	// MinSigma and MaxSigma bound admissible σ requests (defaults 0.9
	// and 4096).
	MinSigma, MaxSigma float64
	// Prefetch is the base-draw refill lookahead per (shard, base
	// member) stream, as in Config.Prefetch (0 = default, negative =
	// synchronous).
	Prefetch int
}

// ArbitraryPlan describes how one σ is served: the dominating proposal
// width and the base draws of one trial (see internal/convolve).
type ArbitraryPlan = convolve.PlanInfo

// ArbitraryStats is a snapshot of an Arbitrary sampler's counters.
type ArbitraryStats = convolve.Stats

// Arbitrary serves D_{ℤ,σ,μ} for any admissible (σ, μ) from one
// compiled base set: the convolution layer (internal/convolve) selects
// a Micciancio–Walter-style ladder of base draws whose width dominates
// the target and reshapes it with constant-time randomized rounding.
// One Arbitrary replaces an unbounded family of per-σ samplers; the
// base set is resolved through the registry as a single artifact, so
// any number of Arbitrary instances (and the per-σ pools sharing its
// members) build each circuit at most once per process.
//
// Next and NextBatch are safe for any number of concurrent callers.
type Arbitrary struct {
	inner *convolve.Sampler
}

// NewArbitrary builds (or loads from the registry cache) the base set
// and returns a ready sampler.
func NewArbitrary(cfg ArbitraryConfig) (*Arbitrary, error) {
	s, err := convolve.New(convolve.Config{
		Bases:    cfg.BaseSigmas,
		Shards:   cfg.Shards,
		Seed:     cfg.Seed,
		PRNG:     cfg.PRNG,
		Workers:  cfg.Workers,
		MinSigma: cfg.MinSigma,
		MaxSigma: cfg.MaxSigma,
		Prefetch: cfg.Prefetch,
	})
	if err != nil {
		return nil, err
	}
	return &Arbitrary{inner: s}, nil
}

// Next returns one sample from D_{ℤ,σ,μ}.
func (a *Arbitrary) Next(sigma, mu float64) (int, error) {
	return a.inner.Next(sigma, mu)
}

// NextBatch fills all of dst with independent samples from D_{ℤ,σ,μ}.
// Unlike Sampler.NextBatch and Pool.NextBatch — whose native granularity
// is a fixed 64-sample batch — every length is served exactly.
func (a *Arbitrary) NextBatch(sigma, mu float64, dst []int) error {
	return a.inner.NextBatch(sigma, mu, dst)
}

// NextBatchContext is NextBatch with cancellation: ctx unblocks a draw
// waiting on a slow base refill and is checked between trial blocks.
// Draws fail over poisoned shards and return ErrArbitraryDegraded only
// when none is healthy.
func (a *Arbitrary) NextBatchContext(ctx context.Context, sigma, mu float64, dst []int) error {
	return a.inner.NextBatchContext(ctx, sigma, mu, dst)
}

// Plan reports how sigma would be served: the dominating proposal width
// and the base draws of one trial.
func (a *Arbitrary) Plan(sigma float64) (ArbitraryPlan, error) {
	return a.inner.Plan(sigma)
}

// Stats returns the serving counters (trials, acceptances, distinct
// plans, base-set provenance).
func (a *Arbitrary) Stats() ArbitraryStats { return a.inner.Stats() }

// BitsUsed reports total random bits consumed across all streams.
func (a *Arbitrary) BitsUsed() uint64 { return a.inner.BitsUsed() }

// Bounds returns the admissible σ range.
func (a *Arbitrary) Bounds() (min, max float64) { return a.inner.Bounds() }

// Health snapshots the per-shard fault-isolation state, merged across
// the base engines (a shard is poisoned if any base member's stream on
// it is poisoned).
func (a *Arbitrary) Health() []ShardHealth { return a.inner.Health() }

// RingStats snapshots per-shard ring occupancy, merged (summed) across
// the base engines that feed each shard's draws.
func (a *Arbitrary) RingStats() []RingStat { return a.inner.Rings() }

// Degraded reports whether any shard of the base engines is poisoned.
// The serving layer sheds free-form load — and the tier controller
// defers promotions — while this is true: a restarting base set should
// not also pay a minimization build.
func (a *Arbitrary) Degraded() bool {
	for _, h := range a.inner.Health() {
		if h.Poisoned {
			return true
		}
	}
	return false
}

// Close stops the background refill goroutines behind the base-draw
// streams.  Draws concurrent with or after Close fail with ErrClosed;
// the serving layer drains first so the error is never served.
func (a *Arbitrary) Close() { a.inner.Close() }
