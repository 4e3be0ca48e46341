// Package engine is the unified asynchronous refill runtime under every
// sharded serving surface in this repo: ctgauss.Pool (and with it every
// ctgaussd σ pool), ctgauss.Arbitrary (the convolution layer's base
// draws), and falcon.SignerPool.
//
// The paper's speed claim rests on keeping the bitsliced lanes full — a
// circuit evaluation amortizes only when all W×64 lanes of a refill are
// consumed.  Before this package existed, every refill ran inline on a
// request goroutine under a shard mutex: p99 latency absorbed whole
// evaluation costs, shards sat idle between requests, and the
// shard/ring/ledger machinery was hand-rolled in three packages plus two
// server coalescer variants.  Engine centralizes it:
//
//   - Each shard owns a ring of Depth refill slots.  A background
//     producer goroutine runs the fill function (a circuit evaluation, a
//     bulk PRNG draw — whatever regenerates one refill) ahead of demand,
//     so a consumer that arrives while the ring holds data pays a memcpy,
//     not an evaluation.
//   - Consumers take zero-copy slices of completed refills in stream
//     order: ConsumeFrom hands the caller successive sub-slices of the
//     ring's slots, so the only copy is the caller's own move into its
//     destination.  Per-shard streams are bit-identical to the
//     synchronous path — each ring is filled in stream order by a single
//     producer — which is what keeps the golden-stream and served-sample
//     bit-identity tests passing unchanged.
//   - Prefetch depth adapts to the drain rate: the producer's target
//     starts at one refill ahead, doubles (up to Depth) whenever a
//     consumer had to wait, and decays after a long streak of waitless
//     takes, so an idle pool stops burning randomness and CPU.
//   - A single Ledger replaces the scattered BitsUsed/Stats/batches
//     accounting.  RefillsStarted counts refills whose consumption began,
//     which is exactly when the synchronous path would have evaluated
//     them — so BitsUsed-style ledgers derived from it are independent of
//     how far the producer has run ahead, and deterministic for a
//     deterministic consumer.
//
// # Fault isolation
//
// A panic inside the fill function — a circuit-evaluation bug, an
// injected entropy failure — is contained to its shard instead of
// crashing the process.  The producer (or, synchronously, the inline
// fill) recovers the panic, discards the partial refill (it never
// published, so consumers cannot observe torn data), marks the shard
// poisoned, and wakes every waiter; blocked ConsumeFrom calls return
// ErrShardPoisoned so serving layers can redirect to healthy shards.
// The producer then restarts with jittered exponential backoff, calling
// the optional Config.Reset hook first so fill-side per-shard state
// (sampler cursors, PRNG positions a mid-fill panic may have corrupted)
// re-syncs at a refill boundary.  Consecutive failures beyond
// Config.MaxRestarts poison the shard permanently: its producer exits
// and ConsumeFrom fails fast with ErrShardPoisoned while the remaining
// shards keep serving.  Ledger and Health expose restart, discard, and
// poison counts for /metrics and /healthz.
//
// ConsumeFrom and TakeFrom accept a context: a caller blocked on a slow
// producer unblocks with ctx.Err() when its request is cancelled, so a
// disconnected HTTP client stops holding a ring.  Consuming a closed
// engine returns ErrClosed (it used to panic) — the drain gate still
// owns the ordering, but a racing request now degrades to an error
// response instead of taking the process down.
//
// Depth = 0 selects the synchronous mode: no goroutines, refills run
// inline under the ring lock — bit- and ledger-identical to the
// pre-engine behaviour, and the baseline BenchmarkEngineTake compares
// the asynchronous modes against.
package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"ctgauss/internal/faultinject"
	"ctgauss/internal/obs"
)

// DefaultDepth is the ring depth used when a consumer passes 0 to the
// layers above (double buffering: the producer fills one slot while
// consumers drain another).
const DefaultDepth = 2

// decayStreak is the number of consecutive waitless takes after which
// the adaptive prefetch target steps down by one (never below 1): a
// consumer that always finds data ready is not draining fast enough to
// need the current lookahead.
const decayStreak = 64

// DefaultMaxRestarts is the consecutive-failure budget per shard when
// Config.MaxRestarts is 0: a fill that panics this many times in a row
// (a deterministic bug re-fed the same state by Reset) poisons the
// shard permanently rather than burning CPU on a hopeless retry loop.
const DefaultMaxRestarts = 8

// Default restart backoff bounds (Config.RestartBackoff /
// RestartBackoffMax when zero).  The first restart retries almost
// immediately — most panics are transient — and the delay doubles with
// jitter up to the cap so a crash-looping shard stays cheap.
const (
	DefaultRestartBackoff    = time.Millisecond
	DefaultRestartBackoffMax = 250 * time.Millisecond
)

// ErrShardPoisoned is returned by ConsumeFrom/TakeFrom when the picked
// shard is poisoned: transiently (its producer is restarting after a
// recovered panic) or permanently (the restart budget is exhausted).
// Callers should redirect the draw to another shard; Health
// distinguishes the two states.
var ErrShardPoisoned = errors.New("engine: shard poisoned")

// Fill regenerates one refill: it must write the next len(dst) items of
// shard s's stream into dst.  For a given shard it is never called
// concurrently with itself — the shard's producer goroutine (or, in
// synchronous mode, the consumer holding the ring lock) is the only
// caller — so implementations may keep per-shard state without locking.
type Fill[T any] func(s int, dst []T)

// Config sizes an Engine.
type Config struct {
	// Shards is the number of independent streams (≥ 1).
	Shards int
	// SlotSize is the item count of one refill slot.  Layers above set it
	// to their natural refill granularity (width×64 samples for a pool
	// shard) so RefillsStarted counts circuit evaluations exactly.
	SlotSize int
	// Depth is the ring depth: how many completed refills a shard buffers
	// ahead of demand.  0 = synchronous (no producer goroutines); the
	// adaptive target never exceeds it.
	Depth int

	// Reset, when set, is called after a recovered fill panic and before
	// the next fill attempt, with the shard index.  A mid-fill panic may
	// leave the fill closure's per-shard state (a sampler's internal
	// cursor, a PRNG stream position) torn; Reset must rebuild it so the
	// next refill starts at a clean refill boundary.  It runs on the
	// producer goroutine (async) or under the ring lock (sync) — the same
	// exclusivity the fill itself enjoys.
	Reset func(s int)
	// MaxRestarts is the consecutive-failure budget per shard before it
	// is poisoned permanently (0 = DefaultMaxRestarts, negative = poison
	// on the first panic).  A successful refill resets the streak.
	MaxRestarts int
	// RestartBackoff and RestartBackoffMax bound the jittered exponential
	// delay between a recovered panic and the retry (zero values pick
	// DefaultRestartBackoff / DefaultRestartBackoffMax).
	RestartBackoff    time.Duration
	RestartBackoffMax time.Duration
}

// Engine runs Config.Shards independent refill rings over one fill
// function.  ConsumeFrom is safe for any number of concurrent callers;
// Close stops the producers and must only run once no consumer can call
// in again (the server's drain gate enforces this ordering).
type Engine[T any] struct {
	cfg   Config
	fill  Fill[T]
	rings []*ring[T]
	wg    sync.WaitGroup
}

// ring is one shard's refill ring.  All fields are guarded by mu; the
// slot being filled by the producer (slots[tail%Depth]) is exclusively
// the producer's while tail−head < Depth, which the produce condition
// guarantees.
type ring[T any] struct {
	mu   sync.Mutex
	more sync.Cond // producer → consumers: a refill completed (or state changed)
	need sync.Cond // consumers → producer: space or demand appeared

	slots  [][]T
	head   uint64 // refills fully consumed
	tail   uint64 // refills produced
	cur    int    // items consumed within slots[head%Depth]
	target int    // adaptive prefetch goal, in [1, Depth]
	streak int    // consecutive waitless takes (drives target decay)
	closed bool

	poisoned bool   // a recovered panic's producer is backing off (or dead)
	dead     bool   // restart budget exhausted; poisoned forever
	failures int    // consecutive fill panics (resets on success)
	restarts uint64 // producer restarts, cumulative
	discards uint64 // refills discarded by recovered panics

	started  uint64 // refills whose consumption began
	consumed uint64 // items handed to consumers
	hits     uint64 // takes served without waiting for a fill
	misses   uint64 // takes that waited (async) or filled inline (sync)
}

// New builds an engine and, in asynchronous mode, starts one producer
// goroutine per shard.  Producers begin filling immediately, so a
// freshly built engine warms its rings before the first request.
func New[T any](cfg Config, fill Fill[T]) *Engine[T] {
	if cfg.Shards < 1 {
		panic(fmt.Sprintf("engine: %d shards", cfg.Shards))
	}
	if cfg.SlotSize < 1 {
		panic(fmt.Sprintf("engine: slot size %d", cfg.SlotSize))
	}
	if cfg.Depth < 0 {
		cfg.Depth = 0
	}
	if cfg.MaxRestarts == 0 {
		cfg.MaxRestarts = DefaultMaxRestarts
	}
	if cfg.RestartBackoff <= 0 {
		cfg.RestartBackoff = DefaultRestartBackoff
	}
	if cfg.RestartBackoffMax <= 0 {
		cfg.RestartBackoffMax = DefaultRestartBackoffMax
	}
	e := &Engine[T]{cfg: cfg, fill: fill, rings: make([]*ring[T], cfg.Shards)}
	depth := cfg.Depth
	if depth == 0 {
		depth = 1 // one inline slot for the synchronous mode
	}
	for i := range e.rings {
		r := &ring[T]{slots: make([][]T, depth), target: 1}
		for j := range r.slots {
			r.slots[j] = make([]T, cfg.SlotSize)
		}
		r.more.L = &r.mu
		r.need.L = &r.mu
		e.rings[i] = r
	}
	if cfg.Depth > 0 {
		e.wg.Add(cfg.Shards)
		for i := range e.rings {
			go e.producer(i)
		}
	}
	return e
}

// Shards returns the shard count.
func (e *Engine[T]) Shards() int { return e.cfg.Shards }

// SlotSize returns the refill granularity in items.
func (e *Engine[T]) SlotSize() int { return e.cfg.SlotSize }

// Async reports whether background producers are running.
func (e *Engine[T]) Async() bool { return e.cfg.Depth > 0 }

// runFill executes one fill with the chaos injection points armed-tests
// use and converts a panic into an error instead of unwinding into the
// producer loop (or the consumer's stack, in synchronous mode).
func (e *Engine[T]) runFill(s int, dst []T) (err error) {
	defer func() {
		if v := recover(); v != nil {
			if ie, ok := v.(*faultinject.Injected); ok {
				err = ie
			} else {
				err = fmt.Errorf("engine: fill panic on shard %d: %v", s, v)
			}
		}
	}()
	faultinject.Fire(faultinject.EngineFillDelay, s)
	faultinject.Fire(faultinject.EngineFillPanic, s)
	e.fill(s, dst)
	return nil
}

// recordFillFailure accounts one recovered fill panic under the ring
// lock and reports whether the shard's consecutive-failure budget is now
// exhausted (the caller then poisons it permanently).
func (e *Engine[T]) recordFillFailure(r *ring[T]) (dead bool) {
	r.discards++
	r.restarts++
	r.failures++
	return e.cfg.MaxRestarts < 0 || r.failures > e.cfg.MaxRestarts
}

// backoff returns the jittered exponential delay before restart attempt
// (1-based): base·2^(attempt−1), halved-to-full jitter, clamped to the
// configured max.
func (e *Engine[T]) backoff(attempt int) time.Duration {
	d := e.cfg.RestartBackoff
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= e.cfg.RestartBackoffMax {
			break
		}
	}
	if d > e.cfg.RestartBackoffMax {
		d = e.cfg.RestartBackoffMax
	}
	// Full jitter in [d/2, d): desynchronizes shards that were poisoned
	// by one cause (a bad PRNG backend) so their retries don't stampede.
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// producer is shard s's background refiller: it keeps the ring target
// refills ahead of the consumers and parks when the lookahead is
// satisfied.  The fill itself runs outside the ring lock, overlapping
// with consumers draining earlier slots.  A fill panic is recovered
// here: the partial refill is discarded, the shard marked poisoned and
// its waiters woken, and the producer restarts after a jittered
// exponential backoff — or exits, poisoning the shard permanently, once
// the consecutive-failure budget is spent.
func (e *Engine[T]) producer(s int) {
	defer e.wg.Done()
	r := e.rings[s]
	depth := uint64(len(r.slots))
	r.mu.Lock()
	for {
		for !r.closed && int(r.tail-r.head) >= r.target {
			r.need.Wait()
		}
		if r.closed {
			r.mu.Unlock()
			return
		}
		slot := r.slots[r.tail%depth]
		r.mu.Unlock()
		err := e.runFill(s, slot)
		r.mu.Lock()
		if err == nil {
			r.failures = 0
			r.poisoned = false
			r.tail++
			r.more.Broadcast()
			continue
		}
		dead := e.recordFillFailure(r)
		r.poisoned = true
		r.dead = dead
		attempt := r.failures
		// Wake everyone: waiters must stop hanging on a shard that has no
		// refill coming and fail over to a healthy one.
		r.more.Broadcast()
		if dead {
			r.mu.Unlock()
			return
		}
		r.mu.Unlock()
		time.Sleep(e.backoff(attempt))
		if e.cfg.Reset != nil {
			e.cfg.Reset(s)
		}
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			return
		}
		// Stay poisoned until the next refill actually completes: a
		// consumer admitted between clear and fill would just block on a
		// ring whose health is still unproven.
	}
}

// ConsumeFrom hands fn the next n items of shard s's stream as one or
// more sub-slices of completed refill slots, in stream order.  fn runs
// under the ring lock (callers do a bounded amount of work per chunk —
// a copy or a multiply-accumulate), so concurrent consumers of one
// shard serialize exactly as they did under the old shard mutex; the
// chunks passed to fn concatenate to the same byte stream the
// synchronous path would produce.
//
// It returns ErrClosed after Close, ErrShardPoisoned when shard s is
// poisoned (transiently while its producer restarts, or permanently),
// and ctx.Err() when ctx is cancelled while waiting for a refill.  A
// nil ctx (or one without a Done channel) never cancels.  On a non-nil
// error the items already handed to fn are discarded from the stream;
// callers must treat their destination buffer as unfilled.
func (e *Engine[T]) ConsumeFrom(ctx context.Context, s, n int, fn func(chunk []T)) error {
	r := e.rings[s]
	depth := uint64(len(r.slots))
	// Tracing hook: one atomic load when observability is off; a
	// request-scoped span recorder when on.  The trace only ever reads
	// the clock, so the served stream is bit-identical either way.
	var tr *obs.Trace
	if obs.TraceEnabled() {
		tr = obs.FromContext(ctx)
	}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	var stopWatch chan struct{}
	defer func() {
		if stopWatch != nil {
			close(stopWatch)
		}
	}()
	r.mu.Lock()
	waited := false
	first := true
	for n > 0 {
		if r.closed {
			r.mu.Unlock()
			return ErrClosed
		}
		if r.poisoned && r.tail == r.head {
			// Nothing buffered and no producer delivering: fail over.
			// Buffered refills of a transiently poisoned shard still
			// serve — they completed before the panic, in stream order.
			r.mu.Unlock()
			return ErrShardPoisoned
		}
		if done != nil {
			select {
			case <-done:
				r.mu.Unlock()
				return ctx.Err()
			default:
			}
		}
		if r.tail == r.head {
			if e.cfg.Depth == 0 {
				// Synchronous mode: evaluate inline, holding the ring
				// lock — the old one-sampler-per-shard-mutex discipline.
				// A panic here poisons the call, not the process: the
				// partial refill is discarded (tail never advances), the
				// fill state resets, and the next call retries.
				t0 := tr.Now()
				err := e.runFill(s, r.slots[0])
				tr.End(obs.StageEval, t0)
				if err != nil {
					dead := e.recordFillFailure(r)
					if dead {
						r.poisoned, r.dead = true, true
					}
					if e.cfg.Reset != nil {
						e.cfg.Reset(s)
					}
					r.mu.Unlock()
					return ErrShardPoisoned
				}
				r.failures = 0
				r.tail++
				waited = true
			} else {
				waited = true
				// Demand outran the lookahead: widen the target so the
				// producer runs further ahead next time.
				if t := r.target * 2; t <= e.cfg.Depth {
					r.target = t
				} else {
					r.target = e.cfg.Depth
				}
				r.streak = 0
				r.need.Signal()
				if done != nil && stopWatch == nil {
					// more.Wait cannot observe ctx; a watcher goroutine
					// converts cancellation into a broadcast.  Started
					// lazily — only calls that actually block pay for it.
					stopWatch = make(chan struct{})
					go func(stop chan struct{}) {
						select {
						case <-done:
							r.mu.Lock()
							r.more.Broadcast()
							r.mu.Unlock()
						case <-stop:
						}
					}(stopWatch)
				}
				t0 := tr.Now()
				r.more.Wait()
				tr.End(obs.StageEngineWait, t0)
				continue
			}
		}
		if first {
			first = false
			if waited {
				r.misses++
			} else {
				r.hits++
				r.streak++
				if r.streak >= decayStreak {
					r.streak = 0
					if r.target > 1 {
						r.target--
					}
				}
			}
		}
		slot := r.slots[r.head%depth]
		if r.cur == 0 {
			r.started++
		}
		k := len(slot) - r.cur
		if k > n {
			k = n
		}
		fn(slot[r.cur : r.cur+k])
		r.cur += k
		n -= k
		r.consumed += uint64(k)
		if r.cur == len(slot) {
			r.cur = 0
			r.head++
			r.need.Signal()
		}
	}
	r.mu.Unlock()
	return nil
}

// TakeFrom copies the next len(dst) items of shard s's stream into dst.
// On a non-nil error dst's contents are undefined and the items already
// copied are discarded from the stream.
func (e *Engine[T]) TakeFrom(ctx context.Context, s int, dst []T) error {
	n := 0
	return e.ConsumeFrom(ctx, s, len(dst), func(chunk []T) {
		n += copy(dst[n:], chunk)
	})
}

// Close stops the producer goroutines and waits for them to exit.  It
// must be ordered after the last consumer call: a ConsumeFrom issued
// after (or blocked across) Close returns ErrClosed, because silently
// returning unfilled buffers would corrupt the served stream.  Closing
// twice is harmless.
func (e *Engine[T]) Close() {
	for _, r := range e.rings {
		r.mu.Lock()
		r.closed = true
		r.mu.Unlock()
		r.need.Broadcast()
		r.more.Broadcast()
	}
	e.wg.Wait()
}

// ShardHealth is one shard's fault-isolation state.
type ShardHealth struct {
	// Poisoned reports the shard is not currently serving new refills:
	// its producer is backing off after a recovered panic, or Dead.
	Poisoned bool
	// Dead reports the restart budget is exhausted: the shard is poisoned
	// permanently and its producer has exited.
	Dead bool
	// Restarts counts producer restarts (recovered fill panics),
	// cumulative.
	Restarts uint64
	// DiscardedRefills counts refills torn down by recovered panics —
	// randomness consumed but never served.
	DiscardedRefills uint64
}

// Health snapshots every shard's fault-isolation state, indexed by
// shard.
func (e *Engine[T]) Health() []ShardHealth {
	out := make([]ShardHealth, len(e.rings))
	for i, r := range e.rings {
		r.mu.Lock()
		out[i] = ShardHealth{
			Poisoned:         r.poisoned,
			Dead:             r.dead,
			Restarts:         r.restarts,
			DiscardedRefills: r.discards,
		}
		r.mu.Unlock()
	}
	return out
}

// RingStat is one shard's prefetch-ring occupancy snapshot: how many
// completed refills sit buffered ahead of demand, the producer's
// current adaptive target, and the configured depth.  These feed the
// ctgaussd_engine_ring_* gauges — buffered ≈ 0 under sustained load
// means consumers run at refill speed (prefetch misses); buffered near
// target means the producer keeps ahead.
type RingStat struct {
	Buffered int
	Target   int
	Depth    int
}

// Rings snapshots every shard's ring occupancy, indexed by shard.
func (e *Engine[T]) Rings() []RingStat {
	out := make([]RingStat, len(e.rings))
	for i, r := range e.rings {
		r.mu.Lock()
		out[i] = RingStat{
			Buffered: int(r.tail - r.head),
			Target:   int(r.target),
			Depth:    e.cfg.Depth,
		}
		r.mu.Unlock()
	}
	return out
}

// Ledger is the unified refill/consumption accounting, aggregated over
// all shards.  It replaces the per-layer BitsUsed sums, coalescer batch
// counters, and laneSource draw ledgers that predate the engine.
type Ledger struct {
	Shards   int
	SlotSize int
	Depth    int // configured ring depth (0 = synchronous)

	// RefillsProduced counts fills completed, including lookahead not yet
	// consumed.  RefillsStarted counts refills whose consumption began —
	// exactly the evaluations the synchronous path would have run, so
	// randomness ledgers derive from it (bits = RefillsStarted ×
	// bits-per-refill) independent of producer lookahead.
	RefillsProduced uint64
	RefillsStarted  uint64
	// ItemsConsumed counts items handed to consumers.
	ItemsConsumed uint64
	// PrefetchHits counts takes served without waiting for a fill;
	// PrefetchMisses counts takes that waited on the producer (async) or
	// evaluated inline (sync).
	PrefetchHits   uint64
	PrefetchMisses uint64

	// ProducerRestarts counts recovered fill panics (cumulative, all
	// shards); RefillsDiscarded counts the partial refills they tore
	// down.  ShardsPoisoned is the number of shards currently poisoned
	// (a gauge, not a counter — a recovered shard leaves it).
	ProducerRestarts uint64
	RefillsDiscarded uint64
	ShardsPoisoned   int
}

// HitRatio returns PrefetchHits / (PrefetchHits + PrefetchMisses), or 0
// before any take.
func (l Ledger) HitRatio() float64 {
	total := l.PrefetchHits + l.PrefetchMisses
	if total == 0 {
		return 0
	}
	return float64(l.PrefetchHits) / float64(total)
}

// Ledger snapshots the aggregate counters.
func (e *Engine[T]) Ledger() Ledger {
	l := Ledger{Shards: e.cfg.Shards, SlotSize: e.cfg.SlotSize, Depth: e.cfg.Depth}
	for _, r := range e.rings {
		r.mu.Lock()
		l.RefillsProduced += r.tail
		l.RefillsStarted += r.started
		l.ItemsConsumed += r.consumed
		l.PrefetchHits += r.hits
		l.PrefetchMisses += r.misses
		l.ProducerRestarts += r.restarts
		l.RefillsDiscarded += r.discards
		if r.poisoned {
			l.ShardsPoisoned++
		}
		r.mu.Unlock()
	}
	return l
}
