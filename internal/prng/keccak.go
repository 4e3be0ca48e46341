package prng

import "crypto/sha3"

// SHAKE256 is the FIPS 202 extendable-output function in streaming mode,
// usable both as a hash (for Falcon's hash-to-point) and as a PRNG.  It
// wraps the standard library's crypto/sha3, whose Keccak permutation has
// amd64 assembly.
type SHAKE256 struct{ h *sha3.SHAKE }

// NewSHAKE256 returns an empty sponge.
func NewSHAKE256() *SHAKE256 { return &SHAKE256{h: sha3.NewSHAKE256()} }

// NewSHAKE256Seeded absorbs seed and switches to squeezing, yielding a
// deterministic PRNG.
func NewSHAKE256Seeded(seed []byte) *SHAKE256 {
	s := NewSHAKE256()
	s.Absorb(seed)
	return s
}

// Name implements Source.
func (s *SHAKE256) Name() string { return "shake256" }

// Absorb feeds data into the sponge.  It panics if squeezing has begun.
func (s *SHAKE256) Absorb(p []byte) { s.h.Write(p) }

// Fill implements Source: it squeezes len(p) bytes.
func (s *SHAKE256) Fill(p []byte) { s.h.Read(p) }

// ShakeSum256 returns a d-byte SHAKE256 digest of data (one-shot helper).
func ShakeSum256(d int, data []byte) []byte { return sha3.SumSHAKE256(data, d) }
