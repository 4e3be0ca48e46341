package tier

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakePool is a marker pool: every sample it serves carries its marker
// value, so a response mixing tiers (or generations) is detectable by
// inspection, and a Take after Close is an error rather than silence.
type fakePool struct {
	marker int
	mu     sync.Mutex
	closed bool
	closes int
}

func (p *fakePool) Take(ctx context.Context, dst []int) error {
	p.mu.Lock()
	closed := p.closed
	p.mu.Unlock()
	if closed {
		return errors.New("fakePool: take after close")
	}
	for i := range dst {
		dst[i] = p.marker
	}
	return nil
}

func (p *fakePool) Close() {
	p.mu.Lock()
	p.closed = true
	p.closes++
	p.mu.Unlock()
}

func (p *fakePool) isClosed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closed
}

// waitState polls until sigma reaches want (builds and drains are
// asynchronous even under manual Poll).
func waitState(t *testing.T, c *Controller, sigma float64, want State) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if c.State(sigma) == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("σ=%v never reached %v (still %v)", sigma, want, c.State(sigma))
}

// checkGoroutines asserts the goroutine count settles back to the
// baseline (same pattern as the engine and server leak harnesses).
func checkGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var after int
	for time.Now().Before(deadline) {
		after = runtime.NumGoroutine()
		if after <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutine leak: %d before, %d after", before, after)
}

func TestStateString(t *testing.T) {
	want := map[State]string{Convolved: "convolved", Building: "building", Compiled: "compiled", Draining: "draining", State(9): "state(9)"}
	for s, str := range want {
		if s.String() != str {
			t.Errorf("State(%d).String() = %q, want %q", int32(s), s.String(), str)
		}
	}
}

func TestNewRequiresBuild(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted a Config without Build")
	}
}

// TestLifecycleManualPoll drives the full state machine by hand:
// convolved → (hot) building → compiled → (cold) draining → convolved,
// with the pool closed exactly once at the end.
func TestLifecycleManualPoll(t *testing.T) {
	pool := &fakePool{marker: 41}
	var builds atomic.Int64
	c, err := New(Config{
		PromoteRPS: 100,
		Window:     time.Second,
		Tick:       -1, // manual Poll only
		Build: func(sigma string) (Pool, error) {
			builds.Add(1)
			if sigma != "2.5" {
				return nil, fmt.Errorf("unexpected σ spelling %q", sigma)
			}
			return pool, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const sigma = 2.5
	if got := c.State(sigma); got != Convolved {
		t.Fatalf("untracked key state = %v, want convolved", got)
	}
	if _, _, ok := c.Acquire(sigma); ok {
		t.Fatal("Acquire succeeded on the convolved tier")
	}

	// Below threshold: 50 samples over a 1s window < 100/s.
	c.Observe(sigma, 0, 50)
	c.Poll()
	if got := c.State(sigma); got != Convolved {
		t.Fatalf("cold key promoted: state %v", got)
	}

	// Hot: cross the threshold and poll.
	c.Observe(sigma, 0, 200)
	c.Poll()
	waitState(t, c, sigma, Compiled)
	if n := builds.Load(); n != 1 {
		t.Fatalf("builds = %d, want 1", n)
	}
	st := c.Stats()
	if st.Promotions != 1 || st.Pools != 1 {
		t.Fatalf("stats after promotion: %+v", st)
	}

	p, release, ok := c.Acquire(sigma)
	if !ok {
		t.Fatal("Acquire failed on the compiled tier")
	}
	out := make([]int, 8)
	if err := p.Take(context.Background(), out); err != nil {
		t.Fatal(err)
	}
	for _, v := range out {
		if v != 41 {
			t.Fatalf("compiled draw returned %d, want marker 41", v)
		}
	}
	release()
	release() // idempotent

	// Cold: flush the window (one rotation per Poll) and demote.
	for i := 0; i < rateBuckets+1; i++ {
		c.Poll()
	}
	waitState(t, c, sigma, Convolved)
	if !pool.isClosed() {
		t.Fatal("demoted pool was not closed")
	}
	st = c.Stats()
	if st.Demotions != 1 || st.Pools != 0 {
		t.Fatalf("stats after demotion: %+v", st)
	}
	pool.mu.Lock()
	closes := pool.closes
	pool.mu.Unlock()
	if closes != 1 {
		t.Fatalf("pool closed %d times, want 1", closes)
	}
}

// TestAcquirePinsPoolAcrossDemotion proves tier-wholeness: a demotion
// concurrent with an in-flight request waits for the reference to
// release before closing the pool.
func TestAcquirePinsPoolAcrossDemotion(t *testing.T) {
	pool := &fakePool{marker: 7}
	c, err := New(Config{
		PromoteRPS: 1, Tick: -1,
		Build: func(string) (Pool, error) { return pool, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.ForcePromote(3.25); err != nil {
		t.Fatal(err)
	}

	p, release, ok := c.Acquire(3.25)
	if !ok {
		t.Fatal("Acquire failed after ForcePromote")
	}
	demoted := make(chan error, 1)
	go func() { demoted <- c.ForceDemote(3.25) }()

	// The demotion must be pending, not complete: the handle pins the pool.
	select {
	case err := <-demoted:
		t.Fatalf("ForceDemote returned %v with a reference outstanding", err)
	case <-time.After(50 * time.Millisecond):
	}
	out := make([]int, 4)
	if err := p.Take(context.Background(), out); err != nil {
		t.Fatalf("pinned pool Take failed mid-drain: %v", err)
	}
	if out[0] != 7 {
		t.Fatalf("pinned draw returned %d, want 7", out[0])
	}
	release()
	if err := <-demoted; err != nil {
		t.Fatal(err)
	}
	if !pool.isClosed() {
		t.Fatal("pool not closed after drain completed")
	}
}

// TestBudgetSpendsHottestFirst pins the MaxPools discipline: with one
// slot and two candidates, the hotter σ gets the build.
func TestBudgetSpendsHottestFirst(t *testing.T) {
	c, err := New(Config{
		PromoteRPS: 10, Window: time.Second, Tick: -1, MaxPools: 1,
		Build: func(string) (Pool, error) { return &fakePool{marker: 1}, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Observe(2.5, 0, 100)
	c.Observe(3.5, 0, 1000) // hotter
	c.Poll()
	waitState(t, c, 3.5, Compiled)
	if got := c.State(2.5); got != Convolved {
		t.Fatalf("σ=2.5 state %v, want convolved (budget should be spent on σ=3.5)", got)
	}
	if err := c.ForcePromote(2.5); err == nil {
		t.Fatal("ForcePromote succeeded past an exhausted budget")
	}
}

// TestMaxSigmaCapsPromotion: arbitrarily hot keys wider than maxCompiledSigma
// stay convolved (compiling them would cost more than it saves).
func TestMaxSigmaCapsPromotion(t *testing.T) {
	c, err := New(Config{
		PromoteRPS: 10, Window: time.Second, Tick: -1,
		Build: func(string) (Pool, error) { return &fakePool{}, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Observe(300, 0, 1_000_000)
	c.Poll()
	time.Sleep(20 * time.Millisecond)
	if got := c.State(300); got != Convolved {
		t.Fatalf("σ=300 state %v, want convolved (σ > maxCompiledSigma)", got)
	}
}

// TestKeyTableEvictionAndOverflow pins the bounded-map discipline: cold
// keys are evicted to admit new ones; with every slot hot, observations
// drop and the overflow flag latches.
func TestKeyTableEvictionAndOverflow(t *testing.T) {
	c, err := New(Config{
		PromoteRPS: 1e12, // never promote; isolate the table mechanics
		Window:     time.Second,
		Tick:       -1,
		Build:      func(string) (Pool, error) { return &fakePool{}, nil },
		maxKeys:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	c.Observe(1.5, 0, 10)
	c.Observe(2.5, 0, 10)
	if st := c.Stats(); st.TrackedKeys != 2 {
		t.Fatalf("tracked = %d, want 2", st.TrackedKeys)
	}
	// Both windows still hot: a third key cannot evict and is dropped.
	c.Observe(3.5, 0, 10)
	st := c.Stats()
	if st.TrackedKeys != 2 || !st.Overflow {
		t.Fatalf("after hot-table insert: %+v, want 2 tracked + overflow", st)
	}
	// Flush the windows; now the cold keys are evictable.
	for i := 0; i < rateBuckets; i++ {
		c.Poll()
	}
	c.Observe(4.5, 0, 10)
	st = c.Stats()
	if st.TrackedKeys != 2 {
		t.Fatalf("eviction failed: %+v", st)
	}
	if c.State(4.5) != Convolved {
		t.Fatal("new key not tracked after eviction")
	}
}

// TestObserveOffCenter pins how μ≠0 traffic enters the table: it counts
// in the key's lifetime samples but never in its rate window, so a key
// first seen off center is cold at once and evictable without waiting
// for a Poll.
func TestObserveOffCenter(t *testing.T) {
	c, err := New(Config{
		PromoteRPS: 1e12,
		Window:     time.Second,
		Tick:       -1,
		Build:      func(string) (Pool, error) { return &fakePool{}, nil },
		maxKeys:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	c.Observe(1.5, 0, 10)
	c.Observe(1.5, 0.25, 5)
	c.Observe(2.5, 0.5, 10)
	snap := c.Snapshot()
	if len(snap) != 2 || snap[0].Samples != 15 || snap[0].Rate != 10 || snap[1].Rate != 0 {
		t.Fatalf("snapshot %+v, want σ=1.5 with 15 samples at rate 10 and σ=2.5 at rate 0", snap)
	}
	// σ=2.5 is cold: a third key evicts it, no Poll needed.
	c.Observe(3.5, 0, 10)
	if st := c.Stats(); st.TrackedKeys != 2 || st.Overflow {
		t.Fatalf("after evicting the off-center key: %+v", st)
	}
	if snap := c.Snapshot(); snap[0].Sigma != 1.5 || snap[1].Sigma != 3.5 {
		t.Fatalf("wrong key evicted: %+v", snap)
	}
	// Both keys warm: the next σ is dropped, whatever its μ.
	c.Observe(4.5, 0.5, 10)
	if st := c.Stats(); st.TrackedKeys != 2 || !st.Overflow {
		t.Fatalf("after a full warm table: %+v, want 2 tracked + overflow", st)
	}
}

// BenchmarkObserveFullTable measures admitting a new σ to a table full
// of warm keys: each op offers a σ the table has never seen, which is
// dropped with the overflow flag set.  This must not cost a scan of the
// table.
func BenchmarkObserveFullTable(b *testing.B) {
	c, err := New(Config{
		PromoteRPS: 1e12,
		Tick:       -1,
		Build:      func(string) (Pool, error) { return &fakePool{}, nil },
	})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < defaultMaxTrackedKeys; i++ {
		c.Observe(1+float64(i)/8, 0, 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Observe(1e4+float64(i), 0, 1)
	}
	b.StopTimer()
	if st := c.Stats(); st.TrackedKeys != defaultMaxTrackedKeys || !st.Overflow {
		b.Fatalf("table %+v, want %d keys and overflow", st, defaultMaxTrackedKeys)
	}
}

// TestForceDemoteRequiresCompiled covers the error arms of the forced
// transitions.
func TestForceDemoteRequiresCompiled(t *testing.T) {
	c, err := New(Config{Build: func(string) (Pool, error) { return &fakePool{}, nil }})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.ForceDemote(2.5); err == nil {
		t.Fatal("ForceDemote succeeded on an untracked key")
	}
	if err := c.ForcePromote(2.5); err != nil {
		t.Fatal(err)
	}
	if err := c.ForcePromote(2.5); err != nil {
		t.Fatalf("re-promoting a compiled key should be a no-op, got %v", err)
	}
	if err := c.ForceDemote(2.5); err != nil {
		t.Fatal(err)
	}
}

// TestCloseWithInFlightBuild: a build finishing after Close must close
// its orphan pool instead of installing it, and Close must not return
// before the build goroutine exits.
func TestCloseWithInFlightBuild(t *testing.T) {
	pool := &fakePool{marker: 9}
	gate := make(chan struct{})
	c, err := New(Config{
		PromoteRPS: 10, Window: time.Second, Tick: -1,
		Build: func(string) (Pool, error) { <-gate; return pool, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Observe(2.5, 0, 100)
	c.Poll()
	waitState(t, c, 2.5, Building)

	closed := make(chan struct{})
	go func() { c.Close(); close(closed) }()
	select {
	case <-closed:
		t.Fatal("Close returned with a build in flight")
	case <-time.After(50 * time.Millisecond):
	}
	close(gate)
	<-closed
	if !pool.isClosed() {
		t.Fatal("orphan pool from post-Close build was not closed")
	}
	if err := c.ForcePromote(2.5); !errors.Is(err, ErrClosed) {
		t.Fatalf("ForcePromote after Close = %v, want ErrClosed", err)
	}
}

// TestAutomaticTicker runs the background ticker end to end: sustained
// load promotes without any manual Poll, silence demotes.
func TestAutomaticTicker(t *testing.T) {
	before := runtime.NumGoroutine()
	var gen atomic.Int64
	c, err := New(Config{
		PromoteRPS: 100,
		Window:     40 * time.Millisecond,
		Tick:       10 * time.Millisecond,
		Build: func(string) (Pool, error) {
			return &fakePool{marker: int(gen.Add(1))}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	const sigma = 2.5
	// Feed observations until the ticker promotes.
	deadline := time.Now().Add(10 * time.Second)
	for c.State(sigma) != Compiled {
		if time.Now().After(deadline) {
			t.Fatalf("never promoted; state %v", c.State(sigma))
		}
		c.Observe(sigma, 0, 50)
		time.Sleep(time.Millisecond)
	}
	// Starve it; the window flushes and the key demotes.
	waitState(t, c, sigma, Convolved)
	st := c.Stats()
	if st.Promotions < 1 || st.Demotions < 1 {
		t.Fatalf("ticker stats: %+v", st)
	}
	c.Close()
	checkGoroutines(t, before)
}

// TestConcurrentTransitions is the tier-transition suite's core pin:
// clients hammer Acquire/Take while promotions and demotions cycle
// underneath them.  Every draw must succeed, every response must be
// uniformly one generation's marker (tier-whole), and no goroutine may
// leak.
func TestConcurrentTransitions(t *testing.T) {
	before := runtime.NumGoroutine()
	var gen atomic.Int64
	c, err := New(Config{
		PromoteRPS: 1, Tick: -1,
		Build: func(string) (Pool, error) {
			return &fakePool{marker: int(gen.Add(1))}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	const sigma = 2.5
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var draws, compiledDraws atomic.Int64
	errc := make(chan error, 64)

	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]int, 64)
			for {
				select {
				case <-stop:
					return
				default:
				}
				p, release, ok := c.Acquire(sigma)
				if !ok {
					continue // convolved tier's turn; nothing to check here
				}
				err := p.Take(context.Background(), out)
				release()
				draws.Add(1)
				if err != nil {
					select {
					case errc <- fmt.Errorf("take: %w", err):
					default:
					}
					continue
				}
				compiledDraws.Add(1)
				first := out[0]
				for _, v := range out {
					if v != first {
						select {
						case errc <- fmt.Errorf("mixed-generation response: %d vs %d", first, v):
						default:
						}
						break
					}
				}
			}
		}()
	}

	for cycle := 0; cycle < 20; cycle++ {
		if err := c.ForcePromote(sigma); err != nil {
			t.Fatalf("cycle %d promote: %v", cycle, err)
		}
		time.Sleep(2 * time.Millisecond)
		if err := c.ForceDemote(sigma); err != nil {
			t.Fatalf("cycle %d demote: %v", cycle, err)
		}
	}
	close(stop)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if compiledDraws.Load() == 0 {
		t.Fatal("no draw ever landed on the compiled tier; the test proved nothing")
	}
	st := c.Stats()
	if st.Promotions != 20 || st.Demotions != 20 {
		t.Fatalf("transition counts: %+v, want 20/20", st)
	}
	c.Close()
	checkGoroutines(t, before)
}

// TestSnapshotSorted pins the stable ordering /metrics and /healthz
// depend on.
func TestSnapshotSorted(t *testing.T) {
	c, err := New(Config{Build: func(string) (Pool, error) { return &fakePool{}, nil }})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, s := range []float64{9.5, 1.25, 4} {
		c.Observe(s, 0, 1)
	}
	snap := c.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot length %d, want 3", len(snap))
	}
	for i := 1; i < len(snap); i++ {
		if snap[i-1].Sigma >= snap[i].Sigma {
			t.Fatalf("snapshot not sorted: %+v", snap)
		}
	}
	if snap[0].Samples != 1 {
		t.Fatalf("snapshot samples = %d, want 1", snap[0].Samples)
	}
}

func TestSigmaString(t *testing.T) {
	cases := map[float64]string{2.5: "2.5", 2: "2", 6.15543: "6.15543"}
	for f, want := range cases {
		if got := SigmaString(f); got != want {
			t.Errorf("SigmaString(%v) = %q, want %q", f, got, want)
		}
	}
}
