package ctgauss_test

import (
	"math"
	"slices"
	"sync"
	"testing"

	"ctgauss"
	"ctgauss/internal/prng"
)

// poolCfg builds at reduced precision so pool tests stay fast; the
// circuit shape is the same as the paper's configuration.
var poolCfg = ctgauss.Config{Sigma: "2", Precision: 48}

func TestPoolSamplesInSupport(t *testing.T) {
	p, err := ctgauss.NewPoolWithConfig(poolCfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.Size() != 4 {
		t.Fatalf("Size = %d, want 4", p.Size())
	}
	st := p.Stats()
	if st.Support == 0 || st.WordOps == 0 {
		t.Fatalf("empty stats: %+v", st)
	}
	nonzero := 0
	for i := 0; i < 1024; i++ {
		v, err := p.Next()
		if err != nil {
			t.Fatal(err)
		}
		if v < -st.Support || v > st.Support {
			t.Fatalf("sample %d out of support ±%d", v, st.Support)
		}
		if v != 0 {
			nonzero++
		}
	}
	if nonzero == 0 {
		t.Fatal("all-zero stream")
	}
}

// TestPoolConcurrentNextBatch is the acceptance-criteria test: many
// goroutines hammering NextBatch concurrently (run under -race in CI).
// Every batch must stay in support and the aggregate variance must match
// σ² — a wrong lock would manifest as torn batches or a skewed moment.
func TestPoolConcurrentNextBatch(t *testing.T) {
	p, err := ctgauss.NewPoolWithConfig(poolCfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	support := p.Stats().Support
	const goroutines = 16
	const batchesEach = 200
	var mu sync.Mutex
	var sum, sq float64
	var n int
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			dst := make([]int, 64)
			var ls, lq float64
			for i := 0; i < batchesEach; i++ {
				if g2 := i % 2; g2 == 0 {
					if err := p.NextBatch(dst); err != nil {
						t.Error(err)
						return
					}
				} else {
					for j := range dst {
						v, err := p.Next()
						if err != nil {
							t.Error(err)
							return
						}
						dst[j] = v
					}
				}
				for _, v := range dst {
					if v < -support || v > support {
						t.Errorf("sample %d out of support ±%d", v, support)
						return
					}
					ls += float64(v)
					lq += float64(v) * float64(v)
				}
			}
			mu.Lock()
			sum += ls
			sq += lq
			n += batchesEach * 64
			mu.Unlock()
		}()
	}
	wg.Wait()
	mean := sum / float64(n)
	variance := sq/float64(n) - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Fatalf("mean = %f, want ≈ 0", mean)
	}
	if math.Abs(variance-4) > 0.3 {
		t.Fatalf("variance = %f, want ≈ 4", variance)
	}
}

// TestPoolDeterministicFromSeed: with a fixed seed, two identically
// configured pools produce identical per-shard streams, and with one
// shard the whole Next sequence is identical.  The multi-shard sequence
// is pinned by TestPoolPickOrderDeterministic.
func TestPoolDeterministicFromSeed(t *testing.T) {
	mk := func(shards int) *ctgauss.Pool {
		cfg := poolCfg
		cfg.Seed = []byte("pool-determinism")
		p, err := ctgauss.NewPoolWithConfig(cfg, shards)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(p.Close)
		return p
	}
	a, b := mk(1), mk(1)
	for i := 0; i < 1000; i++ {
		av, aerr := a.Next()
		bv, berr := b.Next()
		if aerr != nil || berr != nil {
			t.Fatalf("sample %d: %v / %v", i, aerr, berr)
		}
		if av != bv {
			t.Fatalf("sample %d: %d vs %d", i, av, bv)
		}
	}
	ma, mb := mk(3), mk(3)
	for shard := 0; shard < 3; shard++ {
		sa, sb := make([]int, 300), make([]int, 300)
		if err := ma.TakeFromShard(shard, sa); err != nil {
			t.Fatal(err)
		}
		if err := mb.TakeFromShard(shard, sb); err != nil {
			t.Fatal(err)
		}
		for i := range sa {
			if sa[i] != sb[i] {
				t.Fatalf("shard %d sample %d: %d vs %d", shard, i, sa[i], sb[i])
			}
		}
	}
}

// TestPoolDefaultPRNGIsServing pins the pool's empty-PRNG default:
// NewPool draws exactly the stream of a pool that names prng.Serving(),
// and not that of a pool on the other generator.
func TestPoolDefaultPRNGIsServing(t *testing.T) {
	draw := func(p *ctgauss.Pool, err error) []int {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		out := make([]int, 2048)
		if err := p.TakeFromShard(0, out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	other := "chacha20"
	if prng.Serving() == "chacha20" {
		other = "aes-ctr"
	}
	def := draw(ctgauss.NewPool("2", 1))
	named := draw(ctgauss.NewPoolWithConfig(ctgauss.Config{Sigma: "2", PRNG: prng.Serving()}, 1))
	if !slices.Equal(def, named) {
		t.Fatalf("NewPool(\"2\") differs from a pool with PRNG %q", prng.Serving())
	}
	if slices.Equal(def, draw(ctgauss.NewPoolWithConfig(ctgauss.Config{Sigma: "2", PRNG: other}, 1))) {
		t.Fatalf("NewPool(\"2\") matches a pool with PRNG %q too", other)
	}
}

// TestPoolShardsIndependent: distinct shards must not replay each other's
// stream (the per-shard seed derivation is domain-separated).
func TestPoolShardsIndependent(t *testing.T) {
	p, err := ctgauss.NewPoolWithConfig(poolCfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	s0, s1 := make([]int, 256), make([]int, 256)
	if err := p.TakeFromShard(0, s0); err != nil {
		t.Fatal(err)
	}
	if err := p.TakeFromShard(1, s1); err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range s0 {
		if s0[i] != s1[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("both shards produced the identical stream")
	}
}

// TestPoolCompiledPathMatchesInterpreter: the σ=2/n=128 configuration uses
// the generated native circuit; it must produce the same distribution as
// the interpreted program (exact equality is already tested in
// internal/sampler/gen).
func TestPoolCompiledPathMatchesInterpreter(t *testing.T) {
	if testing.Short() {
		t.Skip("full-precision build")
	}
	p, err := ctgauss.NewPool("2", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var sq float64
	const n = 1 << 15
	for i := 0; i < n; i++ {
		s, err := p.Next()
		if err != nil {
			t.Fatal(err)
		}
		v := float64(s)
		sq += v * v
	}
	if v := sq / n; math.Abs(v-4) > 0.3 {
		t.Fatalf("variance %f, want ≈ 4", v)
	}
}

func TestPoolBadConfig(t *testing.T) {
	if _, err := ctgauss.NewPool("not-a-number", 2); err == nil {
		t.Fatal("expected error")
	}
	if _, err := ctgauss.NewPoolWithConfig(ctgauss.Config{Sigma: "2", Precision: 48, PRNG: "bad"}, 2); err == nil {
		t.Fatal("expected error for bad PRNG")
	}
}

// TestPoolPickOrderDeterministic pins the round-robin shard pick: two
// fresh 2-shard pools with one seed give one goroutine identical Take
// sequences, and those sequences visit the shards in the fixed order 1,
// 0, 1, … one refill-sized chunk at a time.
func TestPoolPickOrderDeterministic(t *testing.T) {
	cfg := poolCfg
	cfg.Seed = []byte("pick-order")
	pools := make([]*ctgauss.Pool, 3)
	for i := range pools {
		p, err := ctgauss.NewPoolWithConfig(cfg, 2)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		pools[i] = p
	}
	slot := 64 * pools[0].Stats().BatchesPerRefill
	sizes := []int{1, 100, slot, slot + 500, 3*slot + 7, 64}
	var got [2][]int
	for i := range got {
		for _, n := range sizes {
			dst := make([]int, n)
			if err := pools[i].Take(nil, dst); err != nil {
				t.Fatal(err)
			}
			got[i] = append(got[i], dst...)
		}
	}
	if !slices.Equal(got[0], got[1]) {
		t.Fatal("two fresh pools with one seed served different Take sequences")
	}
	var want []int
	pick := 0
	for _, n := range sizes {
		for n > 0 {
			k := min(n, slot)
			pick++
			dst := make([]int, k)
			if err := pools[2].TakeFromShard(pick%2, dst); err != nil {
				t.Fatal(err)
			}
			want = append(want, dst...)
			n -= k
		}
	}
	if !slices.Equal(got[0], want) {
		t.Fatal("Take sequence does not follow the shard order 1, 0, 1, …")
	}
}
