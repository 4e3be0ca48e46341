package ctgauss_test

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"ctgauss"
)

// TestPoolAsyncMatchesSync is the cross-engine bit-identity property
// test at the pool level: for every served σ configuration — the
// interpreter-backed reduced-precision build, a second σ, and (outside
// -short) the full-precision compiled circuit — an asynchronous pool's
// per-shard streams must equal a synchronous pool's exactly, whatever
// sizes the takes fragment them into.  Prefetch moves evaluation
// latency, never the stream.
//
// The acceptance golden set (internal/acceptance, testdata/golden.json)
// pins the same cross-depth contract absolutely: every PRNG backend at
// widths 1/4/8 is digest-verified at depths 0, 2 and 5 against one
// recorded stream, so a depth-dependent divergence also fails golden
// verification — see docs/ACCEPTANCE.md.
func TestPoolAsyncMatchesSync(t *testing.T) {
	cfgs := []ctgauss.Config{
		{Sigma: "2", Precision: 48},
		{Sigma: "1.5", Precision: 48},
		{Sigma: "6.15543", Precision: 32},
	}
	if !testing.Short() {
		cfgs = append(cfgs, ctgauss.Config{Sigma: "2"}) // compiled path, width 1
	}
	for _, base := range cfgs {
		base.Seed = []byte("cross-engine-identity")
		const shards = 2
		syncCfg, asyncCfg := base, base
		syncCfg.Prefetch = -1
		asyncCfg.Prefetch = 3
		ps, err := ctgauss.NewPoolWithConfig(syncCfg, shards)
		if err != nil {
			t.Fatal(err)
		}
		pa, err := ctgauss.NewPoolWithConfig(asyncCfg, shards)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 60; i++ {
			shard := rng.Intn(shards)
			n := 1 + rng.Intn(700)
			a, b := make([]int, n), make([]int, n)
			if err := ps.TakeFromShard(shard, a); err != nil {
				t.Fatal(err)
			}
			if err := pa.TakeFromShard(shard, b); err != nil {
				t.Fatal(err)
			}
			for j := range a {
				if a[j] != b[j] {
					t.Fatalf("σ=%s n=%d shard %d take %d: sync %d vs async %d at %d",
						base.Sigma, base.Precision, shard, i, a[j], b[j], j)
				}
			}
		}
		if sb, ab := ps.BitsUsed(), pa.BitsUsed(); sb != ab {
			t.Fatalf("σ=%s: randomness ledgers diverge: sync %d, async %d", base.Sigma, sb, ab)
		}
		ps.Close()
		pa.Close()
	}
}

// TestPoolTakeMatchesBatchStream pins Take's stream semantics: on a
// single-shard pool, arbitrary-length takes concatenate to exactly the
// NextBatch stream a direct caller would draw — the property the server
// relies on for the HTTP bit-identity acceptance test.
func TestPoolTakeMatchesBatchStream(t *testing.T) {
	cfg := poolCfg
	cfg.Seed = []byte("take-stream")
	taker, err := ctgauss.NewPoolWithConfig(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer taker.Close()
	batcher, err := ctgauss.NewPoolWithConfig(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer batcher.Close()
	var got []int
	for _, n := range []int{5, 64, 100, 3, 128, 1, 511} {
		out := make([]int, n)
		if err := taker.Take(nil, out); err != nil {
			t.Fatal(err)
		}
		got = append(got, out...)
	}
	want := make([]int, 0, len(got)+64)
	batch := make([]int, 64)
	for len(want) < len(got) {
		if err := batcher.NextBatch(batch); err != nil {
			t.Fatal(err)
		}
		want = append(want, batch...)
	}
	for i, v := range got {
		if v != want[i] {
			t.Fatalf("Take stream diverges from NextBatch stream at %d: %d vs %d", i, v, want[i])
		}
	}
}

// TestLifecycleClosesGoroutines is the goroutine-leak test for every
// Close the refill runtime introduced: async pools and arbitrary
// samplers own background producers that must all exit on Close.
func TestLifecycleClosesGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()

	p, err := ctgauss.NewPoolWithConfig(poolCfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.NextBatch(make([]int, 64)); err != nil {
		t.Fatal(err)
	}
	if es := p.EngineStats(); !es.Async || es.Prefetch != ctgauss.DefaultPrefetch {
		t.Fatalf("default pool engine not async at default depth: %+v", es)
	}
	arb, err := ctgauss.NewArbitrary(ctgauss.ArbitraryConfig{
		BaseSigmas: []string{"2"},
		Shards:     2,
		Seed:       []byte("lifecycle"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := arb.NextBatch(2.5, 0, make([]int, 10)); err != nil {
		t.Fatal(err)
	}
	if runtime.NumGoroutine() <= before {
		t.Fatal("async pool + arbitrary sampler started no background producers")
	}

	p.Close()
	arb.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines alive after Close, started with %d", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}

	// A synchronous pool owns no goroutines at all.
	cfg := poolCfg
	cfg.Prefetch = -1
	ps, err := ctgauss.NewPoolWithConfig(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := ps.NextBatch(make([]int, 64)); err != nil {
		t.Fatal(err)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Fatalf("sync pool started goroutines: %d > %d", g, before)
	}
	if es := ps.EngineStats(); es.Async || es.PrefetchMisses == 0 {
		t.Fatalf("sync pool engine stats: %+v", es)
	}
	ps.Close()
}
