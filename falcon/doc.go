// Package falcon is the public API of this repository's from-scratch
// Falcon signature implementation with pluggable discrete Gaussian base
// samplers — the application study of the DAC 2019 paper (Table 1): the
// cost of Falcon signing under the constant-time bitsliced sampler versus
// the CDT-based alternatives.
//
// One-shot use builds a key and a signer directly:
//
//	sk, _ := falcon.Keygen(512, seed)
//	signer, _ := falcon.NewSigner(sk, falcon.BaseBitsliced, signSeed)
//	sig, _ := signer.Sign(msg)
//	err := sk.Public().Verify(msg, sig)
//
// A Signer holds a fixed workspace, sized from the key's ring degree,
// and Sign runs in it: over the four Table-1 bases a signature costs
// three allocations, the returned Signature, its salt and its s1.  A
// Signer is not safe for concurrent use, since signing mutates the
// workspace and the base sampler and salt PRNG streams.  For serving,
// NewSignerPool shards independent signers over one key
// (domain-separated seeds; idle signers wait in a free list, so a
// request takes whichever signer is idle, and sequential requests visit
// them round-robin):
//
//	pool, _ := falcon.NewSignerPool(sk, falcon.BaseBitsliced, seed, 8)
//	sig, _ := pool.Sign(msg)          // safe from any goroutine
//	err = pool.Verify(msg, sig)       // stateless, never blocks a signer
//
// Signatures and public keys serialize with Signature.Encode /
// PublicKey.EncodePublic and parse with DecodeSignature / DecodePublic.
//
// Seed handling: Keygen, NewSigner and NewSignerPool are deterministic
// in their seeds, which makes tests and benchmarks reproducible.  In
// production the signing seeds must come from fresh randomness —
// predictable salts or Gaussian streams break the scheme.
//
// Keys and signatures do not depend on the host: every interpreted
// stream, Keygen's f and g and BaseConvolve's base draws included, is
// sampled at one evaluation width (16) whatever the SIMD backend, so
// portable hosts (CTGAUSS_SIMD=off, arm64) derive the same key and sign
// the same signatures from a seed as AVX2 hosts.  Keys that
// portable hosts generated with earlier versions of this package, which
// sampled at a host-dependent width, differ, and so do BaseConvolve
// signatures made on portable hosts before the width was fixed.
package falcon
