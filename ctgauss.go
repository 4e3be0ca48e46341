// Package ctgauss generates constant-time, bitsliced discrete Gaussian
// samplers for arbitrary standard deviation and precision, reproducing
// "Pushing the speed limit of constant-time discrete Gaussian sampling. A
// case study on the Falcon signature scheme" (Karmakar, Roy, Vercauteren,
// Verbauwhede — DAC 2019).
//
// The pipeline enumerates the Knuth-Yao DDG tree of the target
// distribution, exploits the structural theorem that every
// sample-generating random bit string is 1^κ 0 (payload) in draw order,
// exactly minimizes the per-sublist Boolean functions over the small Δ
// payload window, and compiles the result into a branch-free straight-line
// program over 64-bit words that produces 64 samples per evaluation.
//
// Quick start:
//
//	s, err := ctgauss.New("2")               // σ = 2, n = 128, τ = 13
//	z := s.Next()                            // one signed sample
//	batch := make([]int, 64); s.NextBatch(batch)
//
// For concurrent serving, NewPool returns a Pool whose Next/NextBatch are
// safe for any number of goroutines; pools share compiled circuits through
// a process-wide registry (optionally persisted on disk via the
// CTGAUSS_CACHE_DIR environment variable), so a configuration is built at
// most once per process no matter how many pools request it.  New and
// NewWithConfig bypass the registry: each Sampler runs its own build so it
// can expose the full pipeline artefacts (Prob, GenerateGo).
//
// For a σ no circuit was built for, large σ included, NewArbitrary
// composes a small compiled base set into D_{ℤ,σ,μ} through a
// convolution ladder that respects the smoothing condition at every
// node.
package ctgauss

import (
	"fmt"

	"ctgauss/internal/bitslice"
	"ctgauss/internal/core"
	"ctgauss/internal/gaussian"
	"ctgauss/internal/prng"
	"ctgauss/internal/sampler"
)

// Minimizer selects the Boolean minimization strategy of the pipeline.
type Minimizer = core.Minimizer

// Minimization strategies (see the core pipeline for semantics).
const (
	MinimizeExact  = core.MinimizeExact
	MinimizeGreedy = core.MinimizeGreedy
	MinimizeNone   = core.MinimizeNone
)

// Config controls sampler generation.
type Config struct {
	// Sigma is the decimal standard deviation, e.g. "2" or "6.15543".
	Sigma string
	// Precision is the fixed-point probability precision in bits
	// (default 128, the paper's Falcon setting).
	Precision int
	// TailCut is τ; samples lie in [−⌈τσ⌉, ⌈τσ⌉] (default 13).
	TailCut float64
	// Minimizer defaults to MinimizeExact.
	Minimizer Minimizer
	// Seed keys the PRNG (default: fixed test seed; pass fresh
	// randomness for production use).  ChaCha20 and AES-CTR take at
	// most 32 bytes.
	Seed []byte
	// PRNG selects the generator: "chacha20", "shake256" or "aes-ctr".
	// Empty means "chacha20" for New and NewWithConfig, whose example
	// streams must match on every machine, and prng.Serving() for
	// pools: "aes-ctr" where crypto/aes runs on AES instructions (and
	// is therefore constant time), "chacha20" otherwise.
	PRNG string
	// Workers bounds the goroutines used by the build-time Boolean
	// minimization (0 = all CPUs, 1 = serial).  It affects build speed
	// only, never the generated circuit.
	Workers int
	// Prefetch applies to pools only: how many refills each shard's
	// background producer keeps ready ahead of demand (0 =
	// DefaultPrefetch, negative = synchronous refill under the shard
	// lock).  Per-shard sample streams are bit-identical at any setting;
	// prefetch only moves evaluation latency off the request path.
	Prefetch int
}

func (c Config) normalize() Config {
	if c.Precision == 0 {
		c.Precision = 128
	}
	if c.TailCut == 0 {
		c.TailCut = gaussian.DefaultTailCut
	}
	if c.Seed == nil {
		c.Seed = []byte("ctgauss-default-seed")
	}
	if c.PRNG == "" {
		c.PRNG = "chacha20"
	}
	return c
}

// Sampler is a generated constant-time discrete Gaussian sampler.
type Sampler struct {
	built *core.Built
	inner *sampler.Bitsliced
}

// New builds a sampler with default configuration for the given σ.
func New(sigma string) (*Sampler, error) {
	return NewWithConfig(Config{Sigma: sigma})
}

// NewWithConfig builds a sampler from an explicit configuration.
func NewWithConfig(cfg Config) (*Sampler, error) {
	cfg = cfg.normalize()
	built, err := core.Build(core.Config{
		Sigma:   cfg.Sigma,
		N:       cfg.Precision,
		TailCut: cfg.TailCut,
		Min:     cfg.Minimizer,
		Workers: cfg.Workers,
	})
	if err != nil {
		return nil, err
	}
	src, err := prng.NewSource(cfg.PRNG, cfg.Seed)
	if err != nil {
		return nil, err
	}
	// The one-shot Sampler evaluates at bitslice.Width, the width every
	// interpreted stream runs at: its documented examples promise an
	// exact stream for a given seed, and the SIMD backend only changes
	// how fast that stream is computed, never its samples.
	inner := sampler.NewBitslicedWidth("bitsliced-split("+cfg.Sigma+")", built.Optimized(), src, bitslice.Width)
	return &Sampler{built: built, inner: inner}, nil
}

// Next returns one signed sample from D_σ.
func (s *Sampler) Next() int { return s.inner.Next() }

// NextBatch fills dst with 64 signed samples — the native bitsliced
// granularity.  The length contract: len(dst) < 64 is rejected with a
// panic (a short buffer would silently drop samples of a batch whose
// cost was already paid); len(dst) ≥ 64 short-fills exactly dst[:64]
// and leaves the tail untouched.  For exact arbitrary-length draws use
// Arbitrary.NextBatch, whose compacting layer serves any length.
func (s *Sampler) NextBatch(dst []int) { s.inner.NextBatch(dst) }

// BitsUsed reports total random bits consumed.  Consumption is
// input-independent and periodic: one fixed-size draw per refill, where a
// refill produces Stats.BatchesPerRefill batches of 64 samples costing
// Stats.BitsPerBatch bits each.
func (s *Sampler) BitsUsed() uint64 { return s.inner.BitsUsed() }

// Stats describes the generated circuit.
type Stats struct {
	Sigma        string
	Precision    int
	Support      int // max magnitude ⌈τσ⌉ representable
	Delta        int // the paper's Δ (payload window)
	Leaves       int // DDG-tree leaves (size of list L)
	Sublists     int // non-empty l_κ
	ValueBits    int // output magnitude bits m
	WordOps      int // straight-line program length
	BitsPerBatch int // random bits consumed per 64 samples
	// BatchesPerRefill is the evaluation width W: randomness is drawn and
	// the circuit evaluated once per W batches (W×64 samples).
	BatchesPerRefill int
}

// Stats returns circuit statistics.
func (s *Sampler) Stats() Stats {
	b := s.built
	return Stats{
		Sigma:            b.Config.Sigma,
		Precision:        b.Config.N,
		Support:          b.Table.Support,
		Delta:            b.Tree.Delta,
		Leaves:           b.LeafCount,
		Sublists:         b.SublistCount,
		ValueBits:        b.Program.ValueBits,
		WordOps:          b.Program.OpCount(),
		BitsPerBatch:     (b.Program.NumInputs + 1) * 64,
		BatchesPerRefill: s.inner.Width(),
	}
}

// Prob returns the probability of sampling z (from the fixed-point table).
func (s *Sampler) Prob(z int) float64 { return s.built.Table.SignedProb(z) }

// GenerateGo emits a standalone Go source file with the sampler circuit —
// the output of the paper's generator tool.
func (s *Sampler) GenerateGo(pkg, funcName string) string {
	return s.built.Program.EmitGo(pkg, funcName)
}

func (s Stats) String() string {
	return fmt.Sprintf("σ=%s n=%d: Δ=%d, %d leaves in %d sublists, %d word ops, %d bits/batch",
		s.Sigma, s.Precision, s.Delta, s.Leaves, s.Sublists, s.WordOps, s.BitsPerBatch)
}
