package engine

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"ctgauss/internal/faultinject"
)

// chaosFill is a deterministic fill with per-shard state, mirroring how
// the pool's samplers work: shard s's stream is the integers 0, 1, 2, …
// and reset rewinds a shard to its beginning — the pool's
// rebuild-from-seed semantics.  Only shard s's producer (or the ring
// lock, synchronously) touches next[s], so no locking is needed.
type chaosFill struct {
	next []int
}

func (c *chaosFill) fill(s int, dst []int) {
	for i := range dst {
		dst[i] = c.next[s]
		c.next[s]++
	}
}

func (c *chaosFill) reset(s int) { c.next[s] = 0 }

// takeUntilHealthy retries TakeFrom through the transient
// ErrShardPoisoned window until the shard serves (or the deadline
// expires); any other error fails the test.
func takeUntilHealthy(t *testing.T, e *Engine, shard int, dst []int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		err := e.TakeFrom(nil, shard, dst)
		if err == nil {
			return
		}
		if !errors.Is(err, ErrShardPoisoned) {
			t.Fatalf("TakeFrom during recovery: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("shard never recovered from the injected panic")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestChaosAsyncPanicRecovers pins the tentpole end to end on the
// asynchronous engine: an injected fill panic is recovered on the
// producer goroutine, the shard is poisoned and then restarted (Reset
// first), and the post-recovery stream is exactly the deterministic
// stream the Reset hook rewinds to — nothing torn, nothing skipped.
func TestChaosAsyncPanicRecovers(t *testing.T) {
	defer faultinject.Arm(faultinject.EngineFillPanic, faultinject.Fault{Shard: 0, Count: 1})()
	cf := &chaosFill{next: make([]int, 1)}
	e := New(Config{Shards: 1, SlotSize: 8, Depth: 2, Reset: cf.reset}, cf.fill)
	defer e.Close()

	dst := make([]int, 16)
	takeUntilHealthy(t, e, 0, dst)
	for i, v := range dst {
		if v != i {
			t.Fatalf("post-recovery stream: dst[%d] = %d, want %d", i, v, i)
		}
	}
	h := e.Health()[0]
	if h.Restarts != 1 || h.DiscardedRefills != 1 || h.Dead {
		t.Fatalf("health after recovery: %+v", h)
	}
	if h.Poisoned {
		t.Fatal("shard still poisoned after a successful refill")
	}
	l := e.Ledger()
	if l.ProducerRestarts != 1 || l.RefillsDiscarded != 1 || l.ShardsPoisoned != 0 {
		t.Fatalf("ledger after recovery: %+v", l)
	}
}

// TestChaosSyncPanicContained pins the synchronous mode: an inline fill
// panic surfaces as ErrShardPoisoned on the calling draw — not a
// process panic — and the very next draw retries from the Reset state.
func TestChaosSyncPanicContained(t *testing.T) {
	defer faultinject.Arm(faultinject.EngineFillPanic, faultinject.Fault{Shard: faultinject.AnyShard, Count: 1})()
	cf := &chaosFill{next: make([]int, 1)}
	e := New(Config{Shards: 1, SlotSize: 8, Reset: cf.reset}, cf.fill)
	defer e.Close()

	dst := make([]int, 8)
	if err := e.TakeFrom(nil, 0, dst); !errors.Is(err, ErrShardPoisoned) {
		t.Fatalf("injected sync fill panic: err = %v, want ErrShardPoisoned", err)
	}
	if err := e.TakeFrom(nil, 0, dst); err != nil {
		t.Fatalf("draw after recovery: %v", err)
	}
	for i, v := range dst {
		if v != i {
			t.Fatalf("post-recovery stream: dst[%d] = %d, want %d", i, v, i)
		}
	}
	h := e.Health()[0]
	if h.Restarts != 1 || h.Poisoned || h.Dead {
		t.Fatalf("health after sync recovery: %+v", h)
	}
}

// TestChaosDeadShardFailsFastOthersServe exhausts one shard's restart
// budget with a persistent fault: the shard goes permanently dead (its
// producer exits), draws on it fail fast with ErrShardPoisoned, the
// other shard keeps serving, and Close neither hangs nor leaks
// goroutines.
func TestChaosDeadShardFailsFastOthersServe(t *testing.T) {
	before := runtime.NumGoroutine()
	defer faultinject.Arm(faultinject.EngineFillPanic, faultinject.Fault{Shard: 0})()
	cf := &chaosFill{next: make([]int, 2)}
	e := New(Config{Shards: 2, SlotSize: 8, Depth: 2, Reset: cf.reset}, cf.fill)

	deadline := time.Now().Add(10 * time.Second)
	for !e.Health()[0].Dead {
		if time.Now().After(deadline) {
			t.Fatal("shard 0 never exhausted its restart budget")
		}
		time.Sleep(time.Millisecond)
	}
	if err := e.TakeFrom(nil, 0, make([]int, 4)); !errors.Is(err, ErrShardPoisoned) {
		t.Fatalf("dead shard draw: err = %v, want ErrShardPoisoned", err)
	}
	dst := make([]int, 8)
	if err := e.TakeFrom(nil, 1, dst); err != nil {
		t.Fatalf("healthy shard draw alongside a dead one: %v", err)
	}
	for i, v := range dst {
		if v != i {
			t.Fatalf("healthy shard stream: dst[%d] = %d, want %d", i, v, i)
		}
	}
	h := e.Health()[0]
	// failures 1, …, maxRestarts+1 — the last exceeds the budget and
	// kills it.
	if !h.Poisoned || !h.Dead || h.Restarts != maxRestarts+1 || h.DiscardedRefills != maxRestarts+1 {
		t.Fatalf("dead shard health: %+v", h)
	}
	if l := e.Ledger(); l.ShardsPoisoned != 1 {
		t.Fatalf("ledger poisoned gauge = %d, want 1", l.ShardsPoisoned)
	}

	// Close must not hang even though shard 0's producer already exited.
	e.Close()
	deadline = time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines alive after Close, started with %d", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestChaosCancellationWhileBlocked pins the consumer-side escape
// hatch: a take blocked on a stalled fill unblocks with ctx.Err() at
// its deadline instead of holding the ring until the producer comes
// back.
func TestChaosCancellationWhileBlocked(t *testing.T) {
	defer faultinject.Arm(faultinject.EngineFillDelay,
		faultinject.Fault{Shard: faultinject.AnyShard, Delay: 200 * time.Millisecond})()
	cf := &chaosFill{next: make([]int, 1)}
	e := New(Config{Shards: 1, SlotSize: 8, Depth: 1}, cf.fill)
	defer e.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	// 64 items need 8 refills at 200ms each — far past the 20ms deadline.
	err := e.TakeFrom(ctx, 0, make([]int, 64))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("blocked take under deadline: err = %v, want DeadlineExceeded", err)
	}
	if waited := time.Since(start); waited > time.Second {
		t.Fatalf("cancellation took %v to unblock", waited)
	}
}
