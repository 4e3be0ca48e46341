package ctgauss

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"

	"ctgauss/internal/core"
	"ctgauss/internal/engine"
	"ctgauss/internal/prng"
	"ctgauss/internal/registry"
	"ctgauss/internal/sampler"
	"ctgauss/internal/sampler/gen"
)

// ErrClosed is returned by pool draws issued after (or racing) Close.
var ErrClosed = engine.ErrClosed

// ErrPoolDegraded is returned by pool draws when every shard is
// poisoned: each one's producer panicked and is either restarting
// (transient — retry after a backoff) or out of restart budget
// (permanent).  While at least one shard is healthy, draws transparently
// fail over to it and this error is never seen.
var ErrPoolDegraded = errors.New("ctgauss: all pool shards poisoned")

// Pool is the concurrent serving form of a sampler: one compiled circuit
// shared by a fixed set of shards, each an independent sampler instance
// with its own PRNG stream.  Next, NextBatch and Take are safe for any
// number of concurrent callers; requests spread across shards through a
// striped round-robin pick, so with at least as many shards as active
// goroutines they rarely contend.
//
// Refills run on the unified engine runtime (internal/engine): by
// default each shard's circuit evaluations happen on a background
// producer goroutine ahead of demand (Config.Prefetch refills of
// lookahead, adapting to the drain rate), so a request that finds the
// ring warm pays a copy, not an evaluation.  Config.Prefetch < 0
// selects the synchronous mode — refills inline under the shard lock,
// the pre-engine behaviour.  Each shard's sample stream is bit-identical
// in either mode; what changes is who pays the evaluation latency.
//
// A Pool owns background goroutines in asynchronous mode: call Close
// when done with it.  Draws concurrent with (or after) Close fail with
// ErrClosed, so serving layers should still drain first —
// internal/server's gate does — but a racing request degrades to an
// error, not a process crash.
//
// A panic inside one shard's refill (a circuit bug, an entropy failure)
// is contained by the engine runtime: the shard is poisoned, its
// sampler state rebuilt from the shard seed at a refill boundary, and
// its producer restarted with backoff, while draws fail over to the
// remaining healthy shards.  Only when every shard is poisoned do draws
// fail, with ErrPoolDegraded; Health exposes the per-shard state.
//
// The circuit comes from the process-wide build registry, so constructing
// any number of pools for one configuration runs the expensive
// minimization pipeline once.
//
// For serving pools over HTTP — batched draws with request coalescing,
// metrics, and backpressure — see internal/server and cmd/ctgaussd.
type Pool struct {
	art      *registry.Artifact
	eng      *engine.Engine[int]
	picker   *engine.Picker
	samplers []sampler.BatchSampler
	width    int // batches per shard refill (1 on the compiled path)

	// mkSampler rebuilds shard i's sampler from its domain-separated
	// seed — the engine's Reset hook after a recovered refill panic.  A
	// mid-fill panic may leave the old sampler's cursor and PRNG stream
	// torn mid-batch; rebuilding restarts the shard's stream at its
	// deterministic beginning, so post-recovery output is still pinned by
	// the golden vectors.
	mkSampler func(i int) (sampler.BatchSampler, error)
}

// DefaultPrefetch is the refill lookahead used when Config.Prefetch is
// 0: double buffering, so each shard's producer fills one slot while
// consumers drain another.
const DefaultPrefetch = engine.DefaultDepth

// poolWidth is the evaluation width of interpreter-backed pool shards:
// each circuit evaluation runs over poolWidth contiguous words (so
// poolWidth×64 samples per pass), amortizing interpreter dispatch and the
// bulk randomness draw across batches served from one refill.  It
// follows the active SIMD backend's native width (8 portable, 16
// AVX-512), so each pool's stream — and its golden pins — is a function
// of the backend's width, never of which ISA executes it.
func poolWidth() int { return sampler.NativeWidth() }

// NewPool builds a serving pool with default configuration for the given
// σ.  parallelism is the shard count: 0 means runtime.NumCPU().
//
// The default configuration uses a fixed, publicly known seed so runs are
// reproducible.  For production use — anywhere samples must be
// unpredictable, e.g. signature schemes — use NewPoolWithConfig and set
// Config.Seed from fresh randomness.
func NewPool(sigma string, parallelism int) (*Pool, error) {
	return NewPoolWithConfig(Config{Sigma: sigma}, parallelism)
}

// NewPoolWithConfig builds a serving pool from an explicit configuration.
// An empty Config.PRNG selects prng.Serving(): AES-CTR where crypto/aes
// runs on AES instructions, ChaCha20 elsewhere.
func NewPoolWithConfig(cfg Config, parallelism int) (*Pool, error) {
	if cfg.PRNG == "" {
		cfg.PRNG = prng.Serving()
	}
	cfg = cfg.normalize()
	if parallelism <= 0 {
		parallelism = runtime.NumCPU()
	}
	art, err := registry.Shared().Get(core.Config{
		Sigma:   cfg.Sigma,
		N:       cfg.Precision,
		TailCut: cfg.TailCut,
		Min:     cfg.Minimizer,
		Workers: cfg.Workers,
	})
	if err != nil {
		return nil, err
	}
	fn, nin, nval := compiledCircuit(cfg)
	// Only trust the generated circuit when its shape matches the freshly
	// built program (it is regenerated by `go generate`, not per build).
	useCompiled := fn != nil && nin == art.Program.NumInputs && nval == art.Program.ValueBits
	interpWidth := poolWidth()
	p := &Pool{art: art, picker: engine.NewPicker(parallelism), width: interpWidth}
	if useCompiled {
		p.width = 1
	}
	p.mkSampler = func(i int) (sampler.BatchSampler, error) {
		src, err := prng.NewSource(cfg.PRNG, shardSeed(cfg.Seed, i))
		if err != nil {
			return nil, err
		}
		if useCompiled {
			return sampler.NewCompiled(fmt.Sprintf("pool-compiled(%s)#%d", cfg.Sigma, i), fn, nin, nval, src), nil
		}
		return art.NewWideSampler(src, interpWidth), nil
	}
	p.samplers = make([]sampler.BatchSampler, parallelism)
	for i := range p.samplers {
		s, err := p.mkSampler(i)
		if err != nil {
			return nil, err
		}
		p.samplers[i] = s
	}
	p.eng = engine.New(engine.Config{
		Shards:   parallelism,
		SlotSize: p.width * 64,
		Depth:    resolvePrefetch(cfg.Prefetch),
		Reset:    p.resetShard,
	}, p.fillShard)
	return p, nil
}

// resolvePrefetch maps Config.Prefetch to an engine ring depth:
// 0 → DefaultPrefetch, negative → synchronous, positive → itself.
func resolvePrefetch(prefetch int) int {
	switch {
	case prefetch == 0:
		return DefaultPrefetch
	case prefetch < 0:
		return 0
	default:
		return prefetch
	}
}

// fillShard regenerates one refill of shard s.  Only s's producer (or,
// synchronously, the consumer holding s's ring lock) calls it, so the
// underlying sampler needs no extra locking; each call consumes exactly
// one circuit evaluation's randomness.
func (p *Pool) fillShard(s int, dst []int) {
	for off := 0; off < len(dst); off += 64 {
		p.samplers[s].NextBatch(dst[off : off+64])
	}
}

// resetShard is the engine's Reset hook: after a recovered refill panic
// it replaces shard s's sampler with a fresh one built from the same
// domain-separated seed, so the shard resumes at a clean refill boundary
// with a deterministic stream.  It runs with the same exclusivity as
// fillShard (the producer goroutine, or the ring lock in synchronous
// mode), so the plain assignment is race-free.  If the rebuild itself
// fails — it can only fail the way construction would have — the torn
// sampler stays and the next fill's panic spends the restart budget.
func (p *Pool) resetShard(s int) {
	if fresh, err := p.mkSampler(s); err == nil {
		p.samplers[s] = fresh
	}
}

// compiledCircuit returns the pregenerated native circuit for cfg, if the
// generator tool has emitted one (cmd/internal/gencircuits covers the
// paper's two evaluation configurations).  Compiled circuits skip the
// instruction-dispatch overhead of the interpreter.
func compiledCircuit(cfg Config) (fn func(in, out []uint64), numInputs, valueBits int) {
	if cfg.Minimizer != MinimizeExact || cfg.Precision != 128 || cfg.TailCut != 13 {
		return nil, 0, 0
	}
	fn, numInputs, valueBits, _ = gen.Lookup(cfg.Sigma)
	return fn, numInputs, valueBits
}

// shardSeed derives shard i's PRNG seed from the pool seed with domain
// separation, so shards produce independent streams from one master seed.
// The digest is 32 bytes — a valid seed for every supported PRNG.
func shardSeed(seed []byte, shard int) []byte {
	h := sha256.New()
	h.Write([]byte("ctgauss/pool/shard"))
	var idx [4]byte
	binary.BigEndian.PutUint32(idx[:], uint32(shard))
	h.Write(idx[:])
	h.Write(seed)
	return h.Sum(nil)
}

// consume draws n items from a healthy shard, failing over from
// poisoned shards: starting at the picker's shard, it tries every shard
// once before giving up with ErrPoolDegraded.  Close and cancellation
// errors propagate unchanged.
func (p *Pool) consume(ctx context.Context, n int, fn func(chunk []int)) error {
	start := p.picker.Pick()
	for i := 0; i < len(p.samplers); i++ {
		s := (start + i) % len(p.samplers)
		err := p.eng.ConsumeFrom(ctx, s, n, fn)
		if err == nil || !errors.Is(err, engine.ErrShardPoisoned) {
			return err
		}
	}
	return ErrPoolDegraded
}

// Next returns one signed sample.  Safe for concurrent use.
func (p *Pool) Next() (int, error) {
	var v int
	err := p.consume(nil, 1, func(chunk []int) { v = chunk[0] })
	return v, err
}

// NextBatch fills dst[:64] with 64 signed samples.  Safe for concurrent
// use; each call is served whole by a single shard.  The length
// contract matches Sampler.NextBatch: len(dst) < 64 panics, len(dst) ≥
// 64 short-fills exactly dst[:64] and leaves the tail untouched.  On a
// non-nil error dst is undefined.
//
// The short-buffer rejection happens before a shard is claimed, so a
// bad caller never wedges a shard for everyone else.
func (p *Pool) NextBatch(dst []int) error {
	if len(dst) < 64 {
		panic(fmt.Sprintf("ctgauss: NextBatch dst has len %d, need ≥ 64", len(dst)))
	}
	n := 0
	return p.consume(nil, 64, func(chunk []int) {
		n += copy(dst[n:64], chunk)
	})
}

// Take fills all of dst — any length — with consecutive samples of the
// pool's shard streams: the engine hands out exact sub-slices of
// completed refills, so nothing is discarded and no leftover cursor is
// needed above the pool.  Requests larger than one refill are chunked
// refill-by-refill across shards, so big concurrent draws spread over
// the pool instead of serializing on one ring.  Safe for concurrent
// use; the serving layer's /v1/samples handler calls Take directly.
//
// ctx cancels a take blocked on a slow refill (nil never cancels); on
// any error — ErrClosed, ErrPoolDegraded, ctx.Err() — dst's contents
// are undefined and the caller must not serve them.
func (p *Pool) Take(ctx context.Context, dst []int) error {
	slot := p.width * 64
	for len(dst) > 0 {
		n := len(dst)
		if n > slot {
			n = slot
		}
		k := 0
		if err := p.consume(ctx, n, func(chunk []int) {
			k += copy(dst[k:n], chunk)
		}); err != nil {
			return err
		}
		dst = dst[n:]
	}
	return nil
}

// Close stops the pool's background refill goroutines (a no-op in
// synchronous mode beyond gating future draws).  Draws concurrent with
// or after Close fail with ErrClosed; serving layers drain first so the
// error is never served.
func (p *Pool) Close() { p.eng.Close() }

// ShardHealth is one shard's fault-isolation snapshot (see
// internal/engine): whether it is poisoned (producer restarting after a
// recovered panic) or dead (restart budget exhausted), plus lifetime
// restart and discarded-refill counts.
type ShardHealth = engine.ShardHealth

// Health snapshots the per-shard fault-isolation state (restarts,
// poisoned/dead flags, discarded refills), indexed by shard.
func (p *Pool) Health() []ShardHealth { return p.eng.Health() }

// RingStat is one shard's prefetch-ring occupancy snapshot (see
// internal/engine): buffered completed refills, the producer's
// adaptive target, and the configured depth.
type RingStat = engine.RingStat

// RingStats snapshots per-shard ring occupancy — the source of the
// ctgaussd_engine_ring_* gauges.
func (p *Pool) RingStats() []RingStat { return p.eng.Rings() }

// Size returns the shard count.
func (p *Pool) Size() int { return len(p.samplers) }

// Sigma returns the pool's σ as its configured decimal spelling — the
// registry key the serving tiers route and label by.
func (p *Pool) Sigma() string { return p.art.Key.Sigma }

// BuildInFlight reports, without blocking, whether the process-wide
// registry is currently resolving cfg's circuit: a pool build for it
// has started (in this or another goroutine) but not finished.  The
// serving layer's tier controller uses it to distinguish a promotion
// stuck in exact minimization from one about to install — surfaced per
// key on /healthz.
func BuildInFlight(cfg Config) bool {
	cfg = cfg.normalize()
	inFlight, _ := registry.Shared().Inspect(core.Config{
		Sigma:   cfg.Sigma,
		N:       cfg.Precision,
		TailCut: cfg.TailCut,
		Min:     cfg.Minimizer,
	})
	return inFlight
}

// FromCache reports whether the pool's circuit was loaded from the
// registry's on-disk cache rather than built in this process.
func (p *Pool) FromCache() bool { return p.art.FromDisk }

// bitsPerRefill is the randomness cost of one shard refill: width
// batches of (NumInputs+1)×64 bits each.
func (p *Pool) bitsPerRefill() uint64 {
	return uint64(p.art.Program.NumInputs+1) * 64 * uint64(p.width)
}

// BitsUsed reports the random bits consumed by the served stream:
// refills whose consumption has begun × the fixed per-refill draw.
// These are exactly the evaluations the synchronous path would have
// run, so the ledger is independent of producer lookahead and exact:
// dividing by Stats.BitsPerBatch × Stats.BatchesPerRefill counts
// consumed circuit evaluations — the serving layer derives its refill
// metric this way.  (Lookahead refills the producers have built but no
// one has touched are accounted when consumption starts; EngineStats
// exposes the produced count.)
func (p *Pool) BitsUsed() uint64 {
	return p.eng.Ledger().RefillsStarted * p.bitsPerRefill()
}

// EngineStats is a snapshot of a pool-like serving engine's unified
// ledger (see internal/engine): refill production vs consumption and
// the prefetch hit ratio.
type EngineStats struct {
	Shards           int
	SamplesPerRefill int
	Prefetch         int  // configured lookahead depth (0 = synchronous)
	Async            bool // background producers running

	RefillsProduced uint64 // fills completed, including unconsumed lookahead
	RefillsStarted  uint64 // refills whose consumption began
	SamplesServed   uint64 // samples handed to callers
	PrefetchHits    uint64 // draws served without waiting for a fill
	PrefetchMisses  uint64 // draws that waited (async) or filled inline (sync)

	ProducerRestarts uint64 // fills that panicked and were recovered
	RefillsDiscarded uint64 // refills abandoned by a panicking fill
	ShardsPoisoned   int    // shards currently poisoned (restarting or dead)
}

// HitRatio returns PrefetchHits / (PrefetchHits + PrefetchMisses), or 0
// before any draw.
func (s EngineStats) HitRatio() float64 {
	total := s.PrefetchHits + s.PrefetchMisses
	if total == 0 {
		return 0
	}
	return float64(s.PrefetchHits) / float64(total)
}

// EngineStats snapshots the pool's refill-runtime ledger.
func (p *Pool) EngineStats() EngineStats {
	l := p.eng.Ledger()
	return EngineStats{
		Shards:           l.Shards,
		SamplesPerRefill: l.SlotSize,
		Prefetch:         l.Depth,
		Async:            p.eng.Async(),
		RefillsProduced:  l.RefillsProduced,
		RefillsStarted:   l.RefillsStarted,
		SamplesServed:    l.ItemsConsumed,
		PrefetchHits:     l.PrefetchHits,
		PrefetchMisses:   l.PrefetchMisses,
		ProducerRestarts: l.ProducerRestarts,
		RefillsDiscarded: l.RefillsDiscarded,
		ShardsPoisoned:   l.ShardsPoisoned,
	}
}

// Stats describes the shared circuit (same schema as Sampler.Stats).
func (p *Pool) Stats() Stats {
	a := p.art
	return Stats{
		Sigma:            a.Key.Sigma,
		Precision:        a.Key.N,
		Support:          a.Support,
		Delta:            a.Delta,
		Leaves:           a.LeafCount,
		Sublists:         a.SublistCount,
		ValueBits:        a.Program.ValueBits,
		WordOps:          a.Program.OpCount(),
		BitsPerBatch:     (a.Program.NumInputs + 1) * 64,
		BatchesPerRefill: p.width,
	}
}
