package ctgauss

// Test-only accessors: per-shard stream access lets tests pin shard
// independence, cross-engine bit-identity and the round-robin pick
// order shard by shard.

// TakeFromShard copies the next len(dst) samples of one shard's stream.
func (p *Pool) TakeFromShard(shard int, dst []int) error { return p.eng.TakeFrom(nil, shard, dst) }
