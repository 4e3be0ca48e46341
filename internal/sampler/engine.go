package sampler

import "ctgauss/internal/engine"

// NewEngine builds the sharded refill engine behind every bitsliced
// serving stream (ctgauss.Pool, the convolution layer's base members,
// the golden harness).  Shard i draws from the sampler mk(i) returns;
// each refill slot holds one width-w evaluation (w×64 samples), filled
// 64 samples at a time; and depth is the ring depth (engine.DepthFor
// maps a prefetch setting to it).
//
// After a recovered fill panic the engine's Reset hook rebuilds shard i
// with mk(i).  A mid-fill panic may leave the old sampler's cursor and
// PRNG stream torn mid-batch; the rebuild restarts the shard's stream at
// its deterministic beginning, so post-recovery output is still pinned
// by the golden vectors.  Reset runs with the fill's exclusivity (the
// shard's producer, or its ring lock when synchronous), so the swap needs
// no lock.  A failed rebuild — it can only fail the way construction
// would have — keeps the torn sampler, and the next fill's panic spends
// the restart budget.
func NewEngine(shards, w, depth int, mk func(i int) (BatchSampler, error)) (*engine.Engine, error) {
	samplers := make([]BatchSampler, shards)
	for i := range samplers {
		s, err := mk(i)
		if err != nil {
			return nil, err
		}
		samplers[i] = s
	}
	return engine.New(engine.Config{
		Shards:   shards,
		SlotSize: w * 64,
		Depth:    depth,
		Reset: func(i int) {
			if fresh, err := mk(i); err == nil {
				samplers[i] = fresh
			}
		},
	}, func(i int, dst []int) {
		for off := 0; off < len(dst); off += 64 {
			samplers[i].NextBatch(dst[off : off+64])
		}
	}), nil
}
