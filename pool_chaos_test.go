package ctgauss_test

import (
	"errors"
	"testing"

	"ctgauss"
	"ctgauss/internal/faultinject"
)

// TestPoolChaosFailover pins the serving-layer contract of the fault
// isolation: with one shard's refills persistently panicking, every
// draw still succeeds by failing over to the healthy shard, and the
// pool's health surface records the damage.
func TestPoolChaosFailover(t *testing.T) {
	defer faultinject.Arm(faultinject.EngineFillPanic, faultinject.Fault{Shard: 0})()
	cfg := poolCfg
	cfg.Seed = []byte("chaos-failover")
	cfg.Prefetch = -1 // synchronous: failures happen on the draw itself
	p, err := ctgauss.NewPoolWithConfig(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	dst := make([]int, 64)
	for i := 0; i < 30; i++ {
		if err := p.NextBatch(dst); err != nil {
			t.Fatalf("draw %d with one shard poisoned: %v", i, err)
		}
	}
	// The round-robin pick lands on shard 0 every other draw, so 30
	// draws must have tripped the fault at least once.
	es := p.EngineStats()
	if es.ProducerRestarts == 0 || es.RefillsDiscarded == 0 {
		t.Fatalf("no recovered panics recorded under a persistent fault: %+v", es)
	}
	h := p.Health()
	if h[0].Restarts == 0 {
		t.Fatalf("shard 0 health missed the recovered panics: %+v", h)
	}
	if h[1].Restarts != 0 || h[1].Poisoned {
		t.Fatalf("healthy shard 1 contaminated: %+v", h[1])
	}
}

// TestPoolChaosDegradedThenRecovers pins ErrPoolDegraded and the Reset
// hook's determinism promise: with its only shard failing, the pool
// reports degraded service; once the fault clears, the rebuilt sampler
// serves exactly the stream a fresh pool with the same seed would.
func TestPoolChaosDegradedThenRecovers(t *testing.T) {
	disarm := faultinject.Arm(faultinject.EngineFillPanic,
		faultinject.Fault{Shard: faultinject.AnyShard, Count: 2})
	defer disarm()
	cfg := poolCfg
	cfg.Seed = []byte("chaos-degraded")
	cfg.Prefetch = -1
	p, err := ctgauss.NewPoolWithConfig(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	dst := make([]int, 64)
	for i := 0; i < 2; i++ {
		if err := p.NextBatch(dst); !errors.Is(err, ctgauss.ErrPoolDegraded) {
			t.Fatalf("draw %d with every shard failing: err = %v, want ErrPoolDegraded", i, err)
		}
	}
	// Fault exhausted (Count: 2): service resumes deterministically.
	if err := p.NextBatch(dst); err != nil {
		t.Fatalf("draw after fault cleared: %v", err)
	}
	fresh, err := ctgauss.NewPoolWithConfig(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	want := make([]int, 64)
	if err := fresh.NextBatch(want); err != nil {
		t.Fatal(err)
	}
	for i := range dst {
		if dst[i] != want[i] {
			t.Fatalf("post-recovery stream diverges at %d: %d vs fresh pool %d", i, dst[i], want[i])
		}
	}
}

// TestPoolChaosPRNGReadError injects an entropy-read failure underneath
// the sampler: it surfaces inside a refill, the engine's recovery
// contains it, and the rebuilt shard serves the deterministic stream.
func TestPoolChaosPRNGReadError(t *testing.T) {
	defer faultinject.Arm(faultinject.PRNGReadError,
		faultinject.Fault{Shard: faultinject.AnyShard, Count: 1})()
	cfg := poolCfg
	cfg.Seed = []byte("chaos-prng")
	cfg.Prefetch = -1
	p, err := ctgauss.NewPoolWithConfig(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	dst := make([]int, 64)
	if err := p.NextBatch(dst); !errors.Is(err, ctgauss.ErrPoolDegraded) {
		t.Fatalf("draw through injected PRNG failure: err = %v, want ErrPoolDegraded", err)
	}
	if err := p.NextBatch(dst); err != nil {
		t.Fatalf("draw after PRNG recovery: %v", err)
	}
	fresh, err := ctgauss.NewPoolWithConfig(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	want := make([]int, 64)
	if err := fresh.NextBatch(want); err != nil {
		t.Fatal(err)
	}
	for i := range dst {
		if dst[i] != want[i] {
			t.Fatalf("post-PRNG-recovery stream diverges at %d: %d vs %d", i, dst[i], want[i])
		}
	}
}
