// Package tier implements hot-(σ, μ=0) tiering for the arbitrary
// serving layer: a promotion controller that watches per-σ sample rates
// over a sliding window and moves hot keys from the convolved tier
// (ctgauss.Arbitrary, 363–1513 ns/sample) onto direct compiled pools
// (63–89 ns/sample) built in the background — the same
// promote-hot-keys-to-the-fast-path shape an inference cache uses.
//
// The controller never serves samples itself.  The serving layer feeds
// it observations (Observe) and asks it, once per request, which tier a
// σ is on (Acquire); the answer is a refcounted pool handle, so a
// response is always served wholly by one tier and a demotion can never
// close a pool out from under an in-flight draw.
//
// Its key table is the serving process's only per-σ state: besides the
// rate window it holds each σ's lifetime sample count, which the server
// exports as its per-σ ledger.  The table is bounded by one cap
// (4096 keys) and one policy: admitting a new σ to a full table evicts
// a convolved key whose μ=0 window is empty, and if there is none the
// new σ is dropped and the overflow flag set.  Memory therefore stays
// bounded whatever σ clients send, and finding a key to evict never
// scans the table.  State machine per key:
//
//	convolved ──rate ≥ PromoteRPS──► building ──build ok──► compiled
//	    ▲                                │                      │
//	    │                          build fails             rate ≤ DemoteRPS
//	    │                         (cooldown, retry)             ▼
//	    └───────────pool closed──────────────────────────── draining
//
// Builds run on background goroutines through the Build hook — in the
// daemon that is ctgauss.NewPoolWithConfig, whose circuit resolution
// goes through the process-wide registry's singleflight and disk cache,
// so replicas and restarts pay the exact-minimization cost once.
// Promotion is deferred (not failed) while Degraded reports the base
// set unhealthy, and a failed build leaves the key serving from the
// convolved tier with a cooldown before retry; the chaos suite pins
// both via the tier.build.fail injection point.
package tier

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"ctgauss/internal/faultinject"
)

// Pool is the compiled-tier serving surface the controller manages:
// the subset of ctgauss.Pool a router needs.  Tests substitute marker
// pools to prove tier-wholeness of responses.
type Pool interface {
	// Take fills all of dst with consecutive samples (Pool.Take semantics).
	Take(ctx context.Context, dst []int) error
	// Close releases the pool's refill runtime.  The controller calls it
	// exactly once, after the last Acquire reference is released.
	Close()
}

// State is one key's position in the tier state machine.
type State int32

const (
	// Convolved: served by the convolution fallback; no compiled pool.
	Convolved State = iota
	// Building: a background compiled-pool build is in flight; traffic
	// keeps flowing through the convolved tier meanwhile.
	Building
	// Compiled: Acquire routes the key's traffic onto the compiled pool.
	Compiled
	// Draining: demotion in progress — new requests go convolved, the
	// pool closes once in-flight references release.
	Draining
)

func (s State) String() string {
	switch s {
	case Convolved:
		return "convolved"
	case Building:
		return "building"
	case Compiled:
		return "compiled"
	case Draining:
		return "draining"
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

// rateBuckets is the sliding-window resolution: the window is covered
// by this many buckets, rotated one per Poll.
const rateBuckets = 4

// defaultMaxTrackedKeys bounds the key table: an adversarial client
// sweeping σ values must not grow memory without bound.
const defaultMaxTrackedKeys = 4096

// maxCompiledSigma is the largest σ worth compiling directly — exact
// minimization cost grows with the support ⌈τσ⌉, so wider keys stay on
// the convolved tier no matter how hot.
const maxCompiledSigma = 64

// ErrClosed is returned by forced transitions after Close.
var ErrClosed = errors.New("tier: controller closed")

// Config wires a Controller.  Build is required; zero values of the
// rest select the documented defaults.
type Config struct {
	// PromoteRPS is the sliding-window sample rate (samples/second, μ=0
	// traffic only) at which a key becomes a promotion candidate; a
	// compiled key demotes at or below DemoteRPS.  With PromoteRPS ≤ 0
	// no automatic ticker runs: only ForcePromote and ForceDemote move
	// keys (the acceptance harness's mode).
	PromoteRPS float64
	// Window is the sliding-window length rates are measured over
	// (default 10s).
	Window time.Duration
	// Tick is the evaluation cadence: 0 = Window/4 (one bucket per
	// tick), negative = no ticker (tests drive Poll directly).
	Tick time.Duration
	// MaxPools bounds concurrently held compiled pools, counting keys in
	// the building and draining states against the budget (default 4).
	MaxPools int
	// Build constructs the compiled pool for a σ (its canonical decimal
	// spelling).  It runs on a background goroutine; a panic inside it
	// is contained and counted as a failed build.
	Build func(sigma string) (Pool, error)
	// Degraded, when set, defers promotions while it reports true — a
	// degraded base set means the runtime is already fighting a restart,
	// the worst moment to add a minimization build.  Deferral is not
	// failure: the key promotes on a later tick once the set recovers.
	Degraded func() bool
	// Logf receives one line per transition (nil = silent).
	Logf func(format string, args ...any)

	// maxKeys overrides defaultMaxTrackedKeys (tests only).
	maxKeys int
}

// DemoteRPS is the rate at or below which a compiled key demotes:
// PromoteRPS/4, a hysteresis band that keeps a key flickering around
// one threshold from thrashing build/drain cycles.
func (c Config) DemoteRPS() float64 { return c.PromoteRPS / 4 }

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = 10 * time.Second
	}
	if c.Tick == 0 {
		c.Tick = c.Window / rateBuckets
	}
	if c.MaxPools <= 0 {
		c.MaxPools = 4
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	if c.maxKeys <= 0 {
		c.maxKeys = defaultMaxTrackedKeys
	}
	return c
}

// key is one σ's tracking record.  All fields are guarded by the
// controller mutex; the pool itself is only touched outside the lock
// through refcounted handles.
type key struct {
	sigma   float64
	buckets [rateBuckets]uint64 // μ=0 samples; buckets[0] is the current tick
	total   uint64              // lifetime observed samples, any μ
	state   State
	pool    Pool
	refs    int           // outstanding Acquire handles
	drained chan struct{} // closed when refs hits 0 while draining
	// cooldown counts ticks before a failed build may retry, so a hot
	// key with a deterministic build failure doesn't spin the builder.
	cooldown int
}

func (k *key) windowSum() uint64 {
	var s uint64
	for _, b := range k.buckets {
		s += b
	}
	return s
}

// Controller runs the promotion state machine.  Construct with New,
// release with Close.
type Controller struct {
	cfg Config

	mu   sync.Mutex
	keys map[float64]*key
	// cold lists keys that were convolved with an empty window when
	// added: Poll rebuilds it, and a key first observed at μ≠0 or
	// returning to the convolved tier joins it.  Eviction pops entries
	// until one is still cold, so admitting a σ to a full table never
	// scans the map.
	cold     []*key
	active   int // keys holding pool budget: building + compiled + draining
	closed   bool
	overflow bool

	promotions     uint64
	demotions      uint64
	buildsFailed   uint64
	buildsDeferred uint64

	stop chan struct{} // non-nil when the ticker loop runs
	wg   sync.WaitGroup
}

// New returns a running controller.  With cfg.PromoteRPS > 0 and a
// non-negative Tick a background ticker evaluates transitions; Close
// stops it and drains every compiled pool.
func New(cfg Config) (*Controller, error) {
	if cfg.Build == nil {
		return nil, errors.New("tier: Config.Build required")
	}
	cfg = cfg.withDefaults()
	c := &Controller{cfg: cfg, keys: make(map[float64]*key)}
	if cfg.PromoteRPS > 0 && cfg.Tick > 0 {
		c.stop = make(chan struct{})
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			t := time.NewTicker(cfg.Tick)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					c.Poll()
				case <-c.stop:
					return
				}
			}
		}()
	}
	return c, nil
}

// SigmaString is the canonical decimal spelling promotion builds use
// for a float σ — the same spelling a -sigmas flag would carry, so a
// promoted pool's registry key (and disk-cache artifact) is identical
// to a precompiled deployment's.
func SigmaString(sigma float64) string {
	return strconv.FormatFloat(sigma, 'g', -1, 64)
}

// Observe records a response of n samples at (sigma, mu).  Every
// response adds to the key's lifetime total; only μ=0 traffic feeds the
// rate window promotions are decided on, since a compiled pool serves
// only μ=0.  The serving layer calls it once per response, whichever
// tier served it (a promoted key must keep looking hot, or it would
// demote the moment its traffic left the convolved tier).  Past the key
// cap a cold key is evicted to make room; failing that, the
// observation is dropped with the overflow flag set.
func (c *Controller) Observe(sigma, mu float64, n int) {
	if n <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	k := c.trackLocked(sigma)
	if k == nil {
		return
	}
	if mu == 0 {
		k.buckets[0] += uint64(n)
	} else if k.total == 0 && k.state == Convolved {
		c.cold = append(c.cold, k) // new, and its window is empty
	}
	k.total += uint64(n)
}

// trackLocked returns sigma's key, admitting it if the table has room
// or a cold key to evict.  It returns nil, with the overflow flag set,
// when every tracked key is warm or holds a pool.
func (c *Controller) trackLocked(sigma float64) *key {
	if k := c.keys[sigma]; k != nil {
		return k
	}
	if len(c.keys) >= c.cfg.maxKeys && !c.evictColdLocked() {
		c.overflow = true
		return nil
	}
	k := &key{sigma: sigma}
	c.keys[sigma] = k
	return k
}

// evictColdLocked drops one convolved key with an empty window (no
// budget, no pool, no recent μ=0 traffic); reports whether a slot
// freed.  Listed keys that have since warmed up, changed state or left
// the table are discarded on the way.
func (c *Controller) evictColdLocked() bool {
	for len(c.cold) > 0 {
		k := c.cold[len(c.cold)-1]
		c.cold = c.cold[:len(c.cold)-1]
		if c.keys[k.sigma] == k && k.state == Convolved && k.windowSum() == 0 {
			delete(c.keys, k.sigma)
			return true
		}
	}
	return false
}

// Acquire returns sigma's compiled pool and a release function when
// the key is on the compiled tier.  The handle pins the pool: a
// demotion concurrent with the request drains (waits) rather than
// closing the pool mid-draw, so the response is served wholly by the
// tier that admitted it.  release must be called exactly once; it is
// idempotent defensively.
func (c *Controller) Acquire(sigma float64) (Pool, func(), bool) {
	c.mu.Lock()
	k := c.keys[sigma]
	if k == nil || k.state != Compiled {
		c.mu.Unlock()
		return nil, nil, false
	}
	k.refs++
	pool := k.pool
	c.mu.Unlock()
	var once sync.Once
	release := func() {
		once.Do(func() {
			c.mu.Lock()
			k.refs--
			if k.refs == 0 && k.drained != nil {
				close(k.drained)
			}
			c.mu.Unlock()
		})
	}
	return pool, release, true
}

// State reports sigma's current tier state (Convolved for untracked σ).
func (c *Controller) State(sigma float64) State {
	c.mu.Lock()
	defer c.mu.Unlock()
	if k := c.keys[sigma]; k != nil {
		return k.state
	}
	return Convolved
}

// Poll evaluates promotion and demotion against the current window and
// then rotates the rate buckets.  The background ticker calls it every
// Tick; tests with Tick < 0 drive it directly.
func (c *Controller) Poll() {
	type cand struct {
		k    *key
		rate float64
	}
	var promote []cand
	var demote []*key

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	winSecs := c.cfg.Window.Seconds()
	for _, k := range c.keys {
		rate := float64(k.windowSum()) / winSecs
		if k.cooldown > 0 {
			k.cooldown--
			continue
		}
		switch k.state {
		case Convolved:
			if c.cfg.PromoteRPS > 0 && rate >= c.cfg.PromoteRPS && k.sigma <= maxCompiledSigma {
				promote = append(promote, cand{k, rate})
			}
		case Compiled:
			if rate <= c.cfg.DemoteRPS() {
				demote = append(demote, k)
			}
		}
	}
	// Hottest first, so a tight MaxPools budget spends itself where the
	// ns/sample win is largest.
	sort.Slice(promote, func(i, j int) bool { return promote[i].rate > promote[j].rate })
	for _, p := range promote {
		if c.active >= c.cfg.MaxPools {
			break
		}
		if c.cfg.Degraded != nil && c.cfg.Degraded() {
			// The base set is fighting a restart: defer, don't wedge —
			// the key stays convolved and re-candidates next tick.
			c.buildsDeferred++
			break
		}
		c.startBuildLocked(p.k)
	}
	for _, k := range demote {
		c.demoteLocked(k)
	}
	// Rotate: the oldest bucket falls off the window, and the keys it
	// leaves cold become the eviction candidates.
	c.cold = c.cold[:0]
	for _, k := range c.keys {
		copy(k.buckets[1:], k.buckets[:rateBuckets-1])
		k.buckets[0] = 0
		if k.state == Convolved && k.windowSum() == 0 {
			c.cold = append(c.cold, k)
		}
	}
	c.mu.Unlock()
}

// startBuildLocked moves k to Building and launches the background
// build.  Caller holds c.mu and has checked the budget.
func (c *Controller) startBuildLocked(k *key) {
	k.state = Building
	c.active++
	c.cfg.Logf("tier: promoting σ=%s (building compiled pool)", SigmaString(k.sigma))
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		pool, err := c.buildPool(k.sigma)
		c.finishBuild(k, pool, err)
	}()
}

// buildPool runs the Build hook with panic containment; the
// tier.build.fail chaos point fires here, upstream of the hook, so an
// injected failure exercises the exact production recovery path.
func (c *Controller) buildPool(sigma float64) (pool Pool, err error) {
	defer func() {
		if r := recover(); r != nil {
			pool, err = nil, fmt.Errorf("tier: build panicked: %v", r)
		}
	}()
	faultinject.Fire(faultinject.TierBuildFail, faultinject.AnyShard)
	return c.cfg.Build(SigmaString(sigma))
}

// finishBuild installs a completed build or rolls the key back to the
// convolved tier.  A build finishing after Close closes its pool
// instead of installing it.
func (c *Controller) finishBuild(k *key, pool Pool, err error) {
	c.mu.Lock()
	if err != nil {
		k.state = Convolved
		k.cooldown = rateBuckets // one full window before retrying
		c.cold = append(c.cold, k)
		c.active--
		c.buildsFailed++
		c.mu.Unlock()
		c.cfg.Logf("tier: build σ=%s failed, key stays convolved: %v", SigmaString(k.sigma), err)
		return
	}
	if c.closed {
		k.state = Convolved
		c.active--
		c.mu.Unlock()
		pool.Close()
		return
	}
	k.pool = pool
	k.state = Compiled
	c.promotions++
	c.mu.Unlock()
	c.cfg.Logf("tier: σ=%s promoted to compiled tier", SigmaString(k.sigma))
}

// demoteLocked moves k to Draining and spawns the drain: once every
// outstanding Acquire handle releases, the pool closes through its
// engine lifecycle and the key returns to the convolved tier.  Returns
// a channel closed when the demotion fully completes.  Caller holds
// c.mu.
func (c *Controller) demoteLocked(k *key) <-chan struct{} {
	k.state = Draining
	c.demotions++
	ch := make(chan struct{})
	k.drained = ch
	if k.refs == 0 {
		close(ch)
	}
	pool := k.pool
	done := make(chan struct{})
	c.cfg.Logf("tier: demoting σ=%s (draining compiled pool)", SigmaString(k.sigma))
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		<-ch
		pool.Close()
		c.mu.Lock()
		k.pool = nil
		k.drained = nil
		k.state = Convolved
		c.cold = append(c.cold, k)
		c.active--
		c.mu.Unlock()
		close(done)
	}()
	return done
}

// ForcePromote synchronously builds and installs sigma's compiled pool
// regardless of its rate (budget and closed-state still apply).  Keys
// already building or compiled return nil without a second build.
// Used by tests and the acceptance harness to pin the promoted surface
// deterministically.
func (c *Controller) ForcePromote(sigma float64) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	k := c.trackLocked(sigma)
	if k == nil {
		c.mu.Unlock()
		return fmt.Errorf("tier: key table full (%d keys)", c.cfg.maxKeys)
	}
	switch k.state {
	case Building, Compiled:
		c.mu.Unlock()
		return nil
	case Draining:
		c.mu.Unlock()
		return fmt.Errorf("tier: σ=%s is draining; demotion must finish first", SigmaString(sigma))
	}
	if c.active >= c.cfg.MaxPools {
		c.mu.Unlock()
		return fmt.Errorf("tier: compiled-pool budget exhausted (%d)", c.cfg.MaxPools)
	}
	k.state = Building
	c.active++
	c.mu.Unlock()

	pool, err := c.buildPool(sigma)
	c.finishBuild(k, pool, err)
	return err
}

// ForceDemote synchronously demotes sigma: it returns after in-flight
// references drained and the pool closed.  Demoting a key that is not
// compiled is an error.
func (c *Controller) ForceDemote(sigma float64) error {
	c.mu.Lock()
	k := c.keys[sigma]
	if k == nil || k.state != Compiled {
		st := Convolved
		if k != nil {
			st = k.state
		}
		c.mu.Unlock()
		return fmt.Errorf("tier: σ=%s is %s, not compiled", SigmaString(sigma), st)
	}
	done := c.demoteLocked(k)
	c.mu.Unlock()
	<-done
	return nil
}

// KeyInfo is one tracked σ's public snapshot.
type KeyInfo struct {
	Sigma float64
	State State
	// Rate is the sliding-window μ=0 sample rate (samples/second).
	Rate float64
	// Samples is the lifetime observed sample count, any μ.
	Samples uint64
}

// Snapshot lists every tracked key, sorted by σ (stable /metrics and
// /healthz output).
func (c *Controller) Snapshot() []KeyInfo {
	c.mu.Lock()
	out := make([]KeyInfo, 0, len(c.keys))
	winSecs := c.cfg.Window.Seconds()
	for _, k := range c.keys {
		out = append(out, KeyInfo{
			Sigma:   k.sigma,
			State:   k.state,
			Rate:    float64(k.windowSum()) / winSecs,
			Samples: k.total,
		})
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Sigma < out[j].Sigma })
	return out
}

// Stats is the controller's counter snapshot for /metrics.
type Stats struct {
	Promotions     uint64 // builds completed and installed
	Demotions      uint64 // drains started
	BuildsFailed   uint64 // builds that errored or panicked
	BuildsDeferred uint64 // promotion ticks skipped while degraded
	Pools          int    // keys holding pool budget (building+compiled+draining)
	MaxPools       int
	TrackedKeys    int
	Overflow       bool // a σ was dropped: the table was full and no key was cold
}

// Stats snapshots the transition counters.
func (c *Controller) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Promotions:     c.promotions,
		Demotions:      c.demotions,
		BuildsFailed:   c.buildsFailed,
		BuildsDeferred: c.buildsDeferred,
		Pools:          c.active,
		MaxPools:       c.cfg.MaxPools,
		TrackedKeys:    len(c.keys),
		Overflow:       c.overflow,
	}
}

// Config returns the resolved configuration (defaults applied) — the
// serving layer reports it on /healthz.
func (c *Controller) Config() Config { return c.cfg }

// Close stops the ticker, demotes every compiled key, waits for
// in-flight builds and drains, and returns once every pool is closed.
// Closing twice is harmless.
func (c *Controller) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	for _, k := range c.keys {
		if k.state == Compiled {
			c.demoteLocked(k)
		}
	}
	c.mu.Unlock()
	if c.stop != nil {
		close(c.stop)
	}
	c.wg.Wait()
}
