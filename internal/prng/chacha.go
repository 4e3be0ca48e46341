// Package prng provides the pseudorandom generators the paper's
// experiments use: ChaCha20 (the Falcon reference PRNG and the one used in
// Table 1), SHAKE256/Keccak (the generator whose cost dominates in [21]'s
// measurements, §7; here the standard library's crypto/sha3), and
// AES-CTR (the platform-specific alternative the conclusion mentions).
// All are deterministic from a seed so experiments are reproducible, and
// all implement the Source interface.
//
// Serving picks the generator behind the serving surfaces: hardware
// AES-CTR where crypto/aes runs on AES instructions, ChaCha20 elsewhere.
// BitReader turns a Source into the bit, byte and word draws the
// samplers consume.
package prng

import (
	"encoding/binary"
	"fmt"
)

// Source is a deterministic stream of pseudorandom bytes.
type Source interface {
	// Fill overwrites p with pseudorandom bytes.
	Fill(p []byte)
	// Name identifies the generator in experiment output.
	Name() string
}

// ChaCha20 is the RFC 8439 stream cipher run as a PRNG (zero nonce,
// incrementing block counter), matching the Falcon reference
// implementation's use of ChaCha as its sampler PRNG.
type ChaCha20 struct {
	state [16]uint32
	buf   [64]byte
	used  int
}

// NewChaCha20 seeds the generator with a 32-byte key.  Shorter seeds are
// zero-padded; longer seeds are rejected.
func NewChaCha20(seed []byte) (*ChaCha20, error) {
	if len(seed) > 32 {
		return nil, fmt.Errorf("prng: ChaCha20 seed must be at most 32 bytes, got %d", len(seed))
	}
	var key [32]byte
	copy(key[:], seed)
	c := &ChaCha20{used: 64}
	c.state[0] = 0x61707865
	c.state[1] = 0x3320646e
	c.state[2] = 0x79622d32
	c.state[3] = 0x6b206574
	for i := 0; i < 8; i++ {
		c.state[4+i] = binary.LittleEndian.Uint32(key[4*i:])
	}
	// state[12] = block counter, state[13..15] = nonce (zero).
	return c, nil
}

// MustChaCha20 is NewChaCha20 for known-good seeds.
func MustChaCha20(seed []byte) *ChaCha20 {
	c, err := NewChaCha20(seed)
	if err != nil {
		panic(err)
	}
	return c
}

// Name implements Source.
func (c *ChaCha20) Name() string { return "chacha20" }

func quarterRound(a, b, c, d uint32) (uint32, uint32, uint32, uint32) {
	a += b
	d ^= a
	d = d<<16 | d>>16
	c += d
	b ^= c
	b = b<<12 | b>>20
	a += b
	d ^= a
	d = d<<8 | d>>24
	c += d
	b ^= c
	b = b<<7 | b>>25
	return a, b, c, d
}

func (c *ChaCha20) block() {
	var x [16]uint32
	copy(x[:], c.state[:])
	for round := 0; round < 10; round++ {
		x[0], x[4], x[8], x[12] = quarterRound(x[0], x[4], x[8], x[12])
		x[1], x[5], x[9], x[13] = quarterRound(x[1], x[5], x[9], x[13])
		x[2], x[6], x[10], x[14] = quarterRound(x[2], x[6], x[10], x[14])
		x[3], x[7], x[11], x[15] = quarterRound(x[3], x[7], x[11], x[15])
		x[0], x[5], x[10], x[15] = quarterRound(x[0], x[5], x[10], x[15])
		x[1], x[6], x[11], x[12] = quarterRound(x[1], x[6], x[11], x[12])
		x[2], x[7], x[8], x[13] = quarterRound(x[2], x[7], x[8], x[13])
		x[3], x[4], x[9], x[14] = quarterRound(x[3], x[4], x[9], x[14])
	}
	for i := range x {
		x[i] += c.state[i]
	}
	for i, v := range x {
		binary.LittleEndian.PutUint32(c.buf[4*i:], v)
	}
	c.state[12]++
	if c.state[12] == 0 {
		c.state[13]++
	}
	c.used = 0
}

// Fill implements Source.
func (c *ChaCha20) Fill(p []byte) {
	for len(p) > 0 {
		if c.used == 64 {
			c.block()
		}
		n := copy(p, c.buf[c.used:])
		c.used += n
		p = p[n:]
	}
}

// KeystreamAt returns the first 64 keystream bytes for the given key,
// counter and nonce — used by the RFC 8439 known-answer tests.
func KeystreamAt(key [32]byte, counter uint32, nonce [12]byte) [64]byte {
	c := &ChaCha20{used: 64}
	c.state[0] = 0x61707865
	c.state[1] = 0x3320646e
	c.state[2] = 0x79622d32
	c.state[3] = 0x6b206574
	for i := 0; i < 8; i++ {
		c.state[4+i] = binary.LittleEndian.Uint32(key[4*i:])
	}
	c.state[12] = counter
	for i := 0; i < 3; i++ {
		c.state[13+i] = binary.LittleEndian.Uint32(nonce[4*i:])
	}
	c.block()
	return c.buf
}
