package tier

import (
	"sync/atomic"
	"testing"
	"time"

	"ctgauss/internal/faultinject"
)

// TestChaosTierBuildFail pins the failed-promotion path: an injected
// panic in the background build leaves the key serving from the
// convolved tier (no pool installed, no budget leaked), applies a
// cooldown of one full window before retry, and the retry then
// succeeds.
func TestChaosTierBuildFail(t *testing.T) {
	var builds atomic.Int64
	c, err := New(Config{
		PromoteRPS: 10, Window: time.Second, Tick: -1,
		Build: func(string) (Pool, error) {
			builds.Add(1)
			return &fakePool{marker: 1}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	disarm := faultinject.Arm(faultinject.TierBuildFail, faultinject.Fault{
		Shard: faultinject.AnyShard,
		Count: 1,
	})
	defer disarm()

	const sigma = 2.5
	c.Observe(sigma, 0, 100)
	c.Poll()
	// The injected panic unwinds the build goroutine; the key must roll
	// back to convolved with the failure counted and no Build call made
	// (the point fires upstream of the hook).
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().BuildsFailed == 0 {
		if time.Now().After(deadline) {
			t.Fatal("injected build failure never recorded")
		}
		time.Sleep(time.Millisecond)
	}
	st := c.Stats()
	if st.BuildsFailed != 1 || st.Promotions != 0 || st.Pools != 0 {
		t.Fatalf("after injected failure: %+v", st)
	}
	if got := c.State(sigma); got != Convolved {
		t.Fatalf("state after failed build = %v, want convolved", got)
	}
	if builds.Load() != 0 {
		t.Fatalf("Build hook ran %d times; the fault fires upstream of it", builds.Load())
	}
	if _, _, ok := c.Acquire(sigma); ok {
		t.Fatal("Acquire succeeded after a failed build")
	}

	// Cooldown: the key stays hot but must not re-candidate for a full
	// window of polls.
	for i := 0; i < rateBuckets; i++ {
		c.Observe(sigma, 0, 100)
		c.Poll()
		time.Sleep(2 * time.Millisecond)
		if got := c.State(sigma); got != Convolved {
			t.Fatalf("poll %d during cooldown: state %v, want convolved", i, got)
		}
	}
	// Cooldown spent (and the fault auto-disarmed at Count=1): the next
	// hot poll promotes for real.
	c.Observe(sigma, 0, 1000)
	c.Poll()
	waitState(t, c, sigma, Compiled)
	st = c.Stats()
	if st.Promotions != 1 || st.BuildsFailed != 1 || builds.Load() != 1 {
		t.Fatalf("after retry: %+v (builds=%d)", st, builds.Load())
	}
}

// TestChaosDegradedDefersPromotion: while the base set reports
// degraded, promotion is deferred — not failed, not wedged — and
// proceeds on the first healthy tick.
func TestChaosDegradedDefersPromotion(t *testing.T) {
	var degraded atomic.Bool
	degraded.Store(true)
	c, err := New(Config{
		PromoteRPS: 10, Window: time.Second, Tick: -1,
		Build:    func(string) (Pool, error) { return &fakePool{marker: 1}, nil },
		Degraded: func() bool { return degraded.Load() },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const sigma = 2.5
	for i := 0; i < 3; i++ {
		c.Observe(sigma, 0, 1000)
		c.Poll()
		time.Sleep(2 * time.Millisecond)
		if got := c.State(sigma); got != Convolved {
			t.Fatalf("promoted while degraded: state %v", got)
		}
	}
	st := c.Stats()
	if st.BuildsDeferred != 3 || st.Promotions != 0 || st.BuildsFailed != 0 {
		t.Fatalf("deferral stats: %+v, want 3 deferred and nothing else", st)
	}

	degraded.Store(false)
	c.Observe(sigma, 0, 1000)
	c.Poll()
	waitState(t, c, sigma, Compiled)
	if st := c.Stats(); st.Promotions != 1 {
		t.Fatalf("stats after recovery: %+v", st)
	}
}
