package falcon

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"runtime"
	"sync/atomic"

	"ctgauss/internal/engine"
)

// SignerPool is the concurrent serving form of Signer: a fixed set of
// shards over one private key, each an independent Signer with its own
// domain-separated PRNG streams (base sampler and salt).  Sign is safe
// for any number of concurrent callers.  Idle signers wait in a free
// list, so a request takes whichever signer is idle and waits only when
// every one is busy.  Verify needs no signer state and never blocks on
// one.
//
// The free list is first-in first-out and starts at shard 1, so
// sequential Sign calls visit the shards round-robin (1, 2, …, n−1, 0,
// 1, …) and a fresh pool's signatures are a function of its seed.
// Shard i's seed is derived from the pool seed by hashing with a fixed
// domain-separation label and the shard index, so one master seed
// yields independent signing streams — in particular, independent
// salts, which keeps concurrent signatures over one key distinct.
//
// Close gates the pool: Sign calls that start afterwards fail with
// ErrPoolClosed.  Signers own no background goroutines, so Close frees
// nothing else; it exists so serving layers can fence signing at drain
// time with the same lifecycle call the sampling pools use.
type SignerPool struct {
	pk       *PublicKey
	free     chan *Signer // idle signers; capacity = shard count
	closed   atomic.Bool
	attempts atomic.Uint64
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
	p := &SignerPool{pk: sk.Public(), free: make(chan *Signer, parallelism)}
	for i := range signers {
		p.free <- signers[(i+1)%parallelism]
	}
	return p, nil
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

// SignContext is Sign with cancellation: a caller whose context is
// already cancelled fails with ctx.Err() before taking a signer, and one
// whose context cancels while every signer is busy stops waiting with
// ctx.Err().  A nil ctx never cancels.
func (p *SignerPool) SignContext(ctx context.Context, msg []byte) (*Signature, error) {
	if p.closed.Load() {
		return nil, ErrPoolClosed
	}
	var done <-chan struct{}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		done = ctx.Done()
	}
	var s *Signer
	select {
	case s = <-p.free:
	case <-done:
		return nil, ctx.Err()
	}
	defer func() { p.free <- s }()
	before := s.Attempts
	sig, err := s.Sign(msg)
	p.attempts.Add(s.Attempts - before)
	return sig, err
}

// Verify checks sig over msg against the pool's public key.  It touches
// no signer state, so it runs fully in parallel with Sign calls.
func (p *SignerPool) Verify(msg []byte, sig *Signature) error {
	return p.pk.Verify(msg, sig)
}

// Public returns the pool's public key.
func (p *SignerPool) Public() *PublicKey { return p.pk }

// Size returns the shard count.
func (p *SignerPool) Size() int { return cap(p.free) }

// Close gates the pool: new Sign calls fail with ErrPoolClosed while
// in-flight ones finish.  Verify, Public, Size and Attempts keep
// working.  Closing twice is harmless.
func (p *SignerPool) Close() { p.closed.Store(true) }

// Attempts reports signing attempts summed across shards, the first of
// each signature included (diagnostics, mirroring Signer.Attempts).
func (p *SignerPool) Attempts() uint64 { return p.attempts.Load() }
