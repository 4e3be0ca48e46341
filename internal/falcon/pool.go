package falcon

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"runtime"

	"ctgauss/internal/engine"
)

// SignerPool is the concurrent serving form of Signer: a fixed set of
// shards over one private key, each an independent Signer with its own
// domain-separated PRNG streams (base sampler and salt).  Sign is safe
// for any number of concurrent callers; requests spread across shards
// through the engine runtime's striped round-robin pick, so with at
// least as many shards as active goroutines they rarely contend.
// Verify needs no signer state and never blocks on one.
//
// The shard machinery is engine.ShardSet — the same runtime that backs
// ctgauss.Pool's refill rings — rather than a hand-rolled mutex/counter
// copy.  Shard i's seed is derived from the pool seed by hashing with a
// fixed domain-separation label and the shard index, so one master seed
// yields independent signing streams — in particular, independent
// salts, which keeps concurrent signatures over one key distinct.
//
// Close gates the pool: Sign calls that start afterwards fail with
// ErrPoolClosed.  Signers own no background goroutines, so Close frees
// nothing else; it exists so serving layers can fence signing at drain
// time with the same lifecycle call the sampling pools use.
type SignerPool struct {
	pk     *PublicKey
	shards *engine.ShardSet[*Signer]
}

// ErrPoolClosed is returned by Sign after Close.
var ErrPoolClosed = engine.ErrClosed

// NewSignerPool builds a serving pool over sk using the chosen Table-1
// base sampler.  parallelism is the shard count: 0 means
// runtime.NumCPU().  seed is the master seed; as with single signers,
// production deployments must derive it from fresh randomness.
func NewSignerPool(sk *PrivateKey, kind BaseSamplerKind, seed []byte, parallelism int) (*SignerPool, error) {
	if parallelism <= 0 {
		parallelism = runtime.NumCPU()
	}
	signers := make([]*Signer, parallelism)
	for i := range signers {
		s, err := NewSignerWithKind(sk, kind, signerShardSeed(seed, i))
		if err != nil {
			return nil, err
		}
		signers[i] = s
	}
	return &SignerPool{pk: sk.Public(), shards: engine.NewShardSet(signers)}, nil
}

// signerShardSeed derives shard i's seed from the pool seed with domain
// separation (the signing analogue of ctgauss's pool shard derivation).
func signerShardSeed(seed []byte, shard int) []byte {
	h := sha256.New()
	h.Write([]byte("ctgauss/falcon/signer-shard"))
	var idx [4]byte
	binary.BigEndian.PutUint32(idx[:], uint32(shard))
	h.Write(idx[:])
	h.Write(seed)
	return h.Sum(nil)
}

// Sign produces a signature for msg on one shard.  Safe for concurrent
// use.  After Close it fails with ErrPoolClosed.
func (p *SignerPool) Sign(msg []byte) (*Signature, error) {
	return p.SignContext(nil, msg)
}

// SignContext is Sign with cancellation: a caller whose context cancels
// while queued behind a busy signer shard unblocks with ctx.Err()
// instead of holding its place in line.  A nil ctx never cancels.
func (p *SignerPool) SignContext(ctx context.Context, msg []byte) (*Signature, error) {
	var sig *Signature
	err := p.shards.DoContext(ctx, func(s *Signer) error {
		var e error
		sig, e = s.Sign(msg)
		return e
	})
	if err != nil {
		return nil, err
	}
	return sig, nil
}

// Verify checks sig over msg against the pool's public key.  It touches
// no signer state, so it runs fully in parallel with Sign calls.
func (p *SignerPool) Verify(msg []byte, sig *Signature) error {
	return p.pk.Verify(msg, sig)
}

// Public returns the pool's public key.
func (p *SignerPool) Public() *PublicKey { return p.pk }

// Size returns the shard count.
func (p *SignerPool) Size() int { return p.shards.Size() }

// Close gates the pool: new Sign calls fail with ErrPoolClosed while
// in-flight ones finish.  Verify, Public, Size and Attempts keep
// working.  Closing twice is harmless.
func (p *SignerPool) Close() { p.shards.Close() }

// Attempts reports signing attempts summed across shards, the first of
// each signature included (diagnostics, mirroring Signer.Attempts).
func (p *SignerPool) Attempts() uint64 {
	var total uint64
	p.shards.Each(func(s *Signer) { total += s.Attempts })
	return total
}
