package engine

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
)

// counterFill is the reference stream: shard s's samples are
// s*1_000_000_000 + 0, 1, 2, ...  Per-shard state needs no lock — the
// engine guarantees one filler per shard.
func counterFill(next []int) Fill {
	return func(s int, dst []int) {
		for i := range dst {
			dst[i] = s*1_000_000_000 + next[s]
			next[s]++
		}
	}
}

// TestStreamOrderMatchesSync pins the bit-identity property at the
// engine level: however the producer runs ahead and however take sizes
// fragment the stream, each shard's concatenated chunks equal the
// synchronous sequence.
func TestStreamOrderMatchesSync(t *testing.T) {
	for _, depth := range []int{0, 1, 2, 7} {
		t.Run(fmt.Sprintf("depth=%d", depth), func(t *testing.T) {
			const shards, slot = 3, 32
			e := New(Config{Shards: shards, SlotSize: slot, Depth: depth}, counterFill(make([]int, shards)))
			defer e.Close()
			rng := rand.New(rand.NewSource(42))
			pos := make([]int, shards)
			for i := 0; i < 500; i++ {
				s := rng.Intn(shards)
				n := 1 + rng.Intn(3*slot)
				got := make([]int, n)
				if err := e.TakeFrom(nil, s, got); err != nil {
					t.Fatal(err)
				}
				for j, v := range got {
					want := s*1_000_000_000 + pos[s] + j
					if v != want {
						t.Fatalf("shard %d item %d: got %d, want %d", s, pos[s]+j, v, want)
					}
				}
				pos[s] += n
			}
		})
	}
}

// TestStressManyConsumers is the race/stress suite: N producers (one
// per shard, inside the engine) × M consumer goroutines issuing random
// request sizes.  Run under -race in CI.  Afterwards the per-shard
// chunk concatenation must equal the counter stream and the ledger must
// reconcile exactly.
func TestStressManyConsumers(t *testing.T) {
	const shards, slot, depth = 4, 64, 3
	const consumers, takesEach = 16, 200
	e := New(Config{Shards: shards, SlotSize: slot, Depth: depth}, counterFill(make([]int, shards)))
	defer e.Close()

	// fn runs under the ring lock, so per-shard appends are serialized
	// in consumption order without extra synchronization.
	seen := make([][]int, shards)
	var wantItems uint64
	var mu sync.Mutex // guards wantItems only
	var wg sync.WaitGroup
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			var items uint64
			for i := 0; i < takesEach; i++ {
				s := rng.Intn(shards)
				n := 1 + rng.Intn(2*slot)
				items += uint64(n)
				if err := e.ConsumeFrom(nil, s, n, func(chunk []int) {
					seen[s] = append(seen[s], chunk...)
				}); err != nil {
					t.Error(err)
					return
				}
			}
			mu.Lock()
			wantItems += items
			mu.Unlock()
		}(c)
	}
	wg.Wait()

	var total uint64
	for s := range seen {
		for i, v := range seen[s] {
			if want := s*1_000_000_000 + i; v != want {
				t.Fatalf("shard %d: consumption order broken at %d: got %d, want %d", s, i, v, want)
			}
		}
		total += uint64(len(seen[s]))
	}
	if total != wantItems {
		t.Fatalf("consumed %d items, requested %d", total, wantItems)
	}

	l := e.Ledger()
	if l.SamplesServed != wantItems {
		t.Fatalf("ledger SamplesServed = %d, want %d", l.SamplesServed, wantItems)
	}
	var wantStarted uint64
	for s := range seen {
		wantStarted += (uint64(len(seen[s])) + slot - 1) / slot
	}
	if l.RefillsStarted != wantStarted {
		t.Fatalf("ledger RefillsStarted = %d, want %d (ceil of per-shard consumption)", l.RefillsStarted, wantStarted)
	}
	if l.RefillsProduced < l.RefillsStarted {
		t.Fatalf("produced %d < started %d", l.RefillsProduced, l.RefillsStarted)
	}
	if l.RefillsProduced > l.RefillsStarted+uint64(shards*depth) {
		t.Fatalf("produced %d refills, more than started %d + lookahead %d", l.RefillsProduced, l.RefillsStarted, shards*depth)
	}
	if takes := l.PrefetchHits + l.PrefetchMisses; takes != consumers*takesEach {
		t.Fatalf("hits %d + misses %d = %d, want %d takes", l.PrefetchHits, l.PrefetchMisses, takes, consumers*takesEach)
	}
}

// TestSyncModeLedger pins the synchronous mode: no producer goroutines,
// refills counted only when demanded, and every inline fill recorded as
// a miss.
func TestSyncModeLedger(t *testing.T) {
	before := runtime.NumGoroutine()
	e := New(Config{Shards: 2, SlotSize: 8, Depth: 0}, counterFill(make([]int, 2)))
	if g := runtime.NumGoroutine(); g > before {
		t.Fatalf("sync engine started goroutines: %d > %d", g, before)
	}
	dst := make([]int, 20)
	if err := e.TakeFrom(nil, 0, dst); err != nil { // 8+8+4: three inline fills, one take
		t.Fatal(err)
	}
	l := e.Ledger()
	if l.RefillsProduced != 3 || l.RefillsStarted != 3 {
		t.Fatalf("sync refills: produced %d started %d, want 3/3", l.RefillsProduced, l.RefillsStarted)
	}
	if l.PrefetchMisses != 1 || l.PrefetchHits != 0 {
		t.Fatalf("sync take should count one miss: %+v", l)
	}
	// The 4 leftover items of the third slot serve the next take without
	// a fill: a hit.
	if err := e.TakeFrom(nil, 0, dst[:4]); err != nil {
		t.Fatal(err)
	}
	if l = e.Ledger(); l.PrefetchHits != 1 || l.RefillsProduced != 3 {
		t.Fatalf("leftover take: %+v", l)
	}
	if r := l.HitRatio(); r != 0.5 {
		t.Fatalf("one hit and one miss: HitRatio = %v, want 0.5", r)
	}
	e.Close()
}

// TestCloseStopsProducers is the goroutine-leak test: an async engine's
// producers must all exit on Close.
func TestCloseStopsProducers(t *testing.T) {
	before := runtime.NumGoroutine()
	e := New(Config{Shards: 8, SlotSize: 16, Depth: 4}, counterFill(make([]int, 8)))
	dst := make([]int, 64)
	for s := 0; s < 8; s++ {
		if err := e.TakeFrom(nil, s, dst); err != nil {
			t.Fatal(err)
		}
	}
	e.Close()
	e.Close() // idempotent
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still alive after Close (started with %d)", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestConsumeAfterCloseErrClosed pins the lifecycle contract: a draw
// racing (or ordered after) Close degrades to ErrClosed — an error the
// serving layer can map to a 503 — not a panic or a silent zero-fill.
func TestConsumeAfterCloseErrClosed(t *testing.T) {
	e := New(Config{Shards: 1, SlotSize: 4, Depth: 2}, counterFill(make([]int, 1)))
	e.Close()
	if err := e.TakeFrom(nil, 0, make([]int, 1)); err != ErrClosed {
		t.Fatalf("TakeFrom after Close: %v, want ErrClosed", err)
	}
	if err := e.ConsumeFrom(nil, 0, 1, func([]int) {}); err != ErrClosed {
		t.Fatalf("ConsumeFrom after Close: %v, want ErrClosed", err)
	}
}

// TestLookaheadServesHits pins the fixed lookahead: a drain faster than
// the fill waits, an idle producer refills its ring to exactly Depth
// refills and parks, and takes covering those refills are all served
// without waiting.
func TestLookaheadServesHits(t *testing.T) {
	const depth, slot = 4, 256
	slow := func(s int, dst []int) {
		time.Sleep(200 * time.Microsecond)
		for i := range dst {
			dst[i] = i
		}
	}
	e := New(Config{Shards: 1, SlotSize: slot, Depth: depth}, slow)
	defer e.Close()
	dst := make([]int, slot)
	for i := 0; i < 20; i++ {
		if err := e.TakeFrom(nil, 0, dst); err != nil {
			t.Fatal(err)
		}
	}
	if e.Ledger().PrefetchMisses == 0 {
		t.Fatal("draining faster than the fill never missed")
	}
	deadline := time.Now().Add(5 * time.Second)
	for e.Health()[0].Buffered < depth {
		if time.Now().After(deadline) {
			t.Fatalf("idle producer buffered %d refills, want %d", e.Health()[0].Buffered, depth)
		}
		time.Sleep(time.Millisecond)
	}
	before := e.Ledger()
	if ahead := before.RefillsProduced - before.RefillsStarted; ahead != depth {
		t.Fatalf("producer ran %d refills ahead, want the lookahead %d", ahead, depth)
	}
	for i := 0; i < depth; i++ {
		if err := e.TakeFrom(nil, 0, dst); err != nil {
			t.Fatal(err)
		}
	}
	after := e.Ledger()
	if hits, misses := after.PrefetchHits-before.PrefetchHits, after.PrefetchMisses-before.PrefetchMisses; hits != depth || misses != 0 {
		t.Fatalf("%d takes from a full ring: %d hits, %d misses, want %d hits", depth, hits, misses, depth)
	}
}
