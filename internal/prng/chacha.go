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
//
// The SIMD backend of internal/bitslice/dispatch also picks ChaCha20's
// block function: under AVX2, whole eight-block runs go through an AVX2
// kernel (chacha_amd64.s); under the portable backend, and for every
// other block, a pure-Go block runs.  Both produce the same RFC 8439
// keystream, so CTGAUSS_SIMD=off changes the speed, not the bytes.
package prng

import (
	"encoding/binary"
	"fmt"
	"math/bits"
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
	// buf is the last block a Fill ended inside; used counts the bytes
	// of it already handed out.
	buf  [64]byte
	used int
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

// advance moves the block counter on by n blocks, carrying into word 13
// when the 32-bit counter wraps.
func (c *ChaCha20) advance(n uint32) {
	c.state[12] += n
	if c.state[12] < n {
		c.state[13]++
	}
}

func quarterRound(a, b, c, d uint32) (uint32, uint32, uint32, uint32) {
	a += b
	d ^= a
	d = bits.RotateLeft32(d, 16)
	c += d
	b ^= c
	b = bits.RotateLeft32(b, 12)
	a += b
	d ^= a
	d = bits.RotateLeft32(d, 8)
	c += d
	b ^= c
	b = bits.RotateLeft32(b, 7)
	return a, b, c, d
}

// block writes the keystream block at the current counter to out and
// advances the counter by one.  The working state lives in sixteen
// locals, not an array, so the rounds run in registers.
func (c *ChaCha20) block(out *[64]byte) {
	s := &c.state
	x0, x1, x2, x3 := s[0], s[1], s[2], s[3]
	x4, x5, x6, x7 := s[4], s[5], s[6], s[7]
	x8, x9, x10, x11 := s[8], s[9], s[10], s[11]
	x12, x13, x14, x15 := s[12], s[13], s[14], s[15]
	for range 10 {
		x0, x4, x8, x12 = quarterRound(x0, x4, x8, x12)
		x1, x5, x9, x13 = quarterRound(x1, x5, x9, x13)
		x2, x6, x10, x14 = quarterRound(x2, x6, x10, x14)
		x3, x7, x11, x15 = quarterRound(x3, x7, x11, x15)
		x0, x5, x10, x15 = quarterRound(x0, x5, x10, x15)
		x1, x6, x11, x12 = quarterRound(x1, x6, x11, x12)
		x2, x7, x8, x13 = quarterRound(x2, x7, x8, x13)
		x3, x4, x9, x14 = quarterRound(x3, x4, x9, x14)
	}
	le := binary.LittleEndian
	le.PutUint32(out[0:], x0+s[0])
	le.PutUint32(out[4:], x1+s[1])
	le.PutUint32(out[8:], x2+s[2])
	le.PutUint32(out[12:], x3+s[3])
	le.PutUint32(out[16:], x4+s[4])
	le.PutUint32(out[20:], x5+s[5])
	le.PutUint32(out[24:], x6+s[6])
	le.PutUint32(out[28:], x7+s[7])
	le.PutUint32(out[32:], x8+s[8])
	le.PutUint32(out[36:], x9+s[9])
	le.PutUint32(out[40:], x10+s[10])
	le.PutUint32(out[44:], x11+s[11])
	le.PutUint32(out[48:], x12+s[12])
	le.PutUint32(out[52:], x13+s[13])
	le.PutUint32(out[56:], x14+s[14])
	le.PutUint32(out[60:], x15+s[15])
	c.advance(1)
}

// Fill implements Source.  It first drains the block buffered by the
// previous call, then writes whole blocks straight into p: eight at a
// time through the vector kernel where one runs (fillBlocks8), one at a
// time otherwise.  Only a partial trailing block goes through the
// buffer.  The keystream is the same however p is sliced.
func (c *ChaCha20) Fill(p []byte) {
	n := copy(p, c.buf[c.used:])
	c.used += n
	p = c.fillBlocks8(p[n:])
	for len(p) >= 64 {
		c.block((*[64]byte)(p))
		p = p[64:]
	}
	if len(p) > 0 {
		c.block(&c.buf)
		c.used = copy(p, c.buf[:])
	}
}

// blocks8Bytes is the output of one vector kernel call: eight blocks.
const blocks8Bytes = 8 * 64

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
	var out [64]byte
	c.block(&out)
	return out
}
