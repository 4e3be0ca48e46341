//go:build amd64 && !purego

package prng

import (
	"math"

	"ctgauss/internal/bitslice/dispatch"
)

// chacha20Blocks8AVX2 writes the eight keystream blocks at counters
// state[12] … state[12]+7 to out[:512], in order (chacha_amd64.s).  The
// counter must not wrap inside the run; state is only read.
//
//go:noescape
func chacha20Blocks8AVX2(state *[16]uint32, out *byte)

// fillBlocks8 writes whole eight-block runs of keystream into p with the
// AVX2 kernel and returns the part of p it left unfilled.  It fills
// nothing unless the active dispatch backend (read per call, so
// CTGAUSS_SIMD=off and dispatch.Force reach it) is AVX2, and it stops
// before a run whose counter would wrap, leaving that run to the Go
// block and its carry into word 13.
func (c *ChaCha20) fillBlocks8(p []byte) []byte {
	if dispatch.Active() < dispatch.AVX2 {
		return p
	}
	for len(p) >= blocks8Bytes && c.state[12] <= math.MaxUint32-7 {
		chacha20Blocks8AVX2(&c.state, &p[0])
		c.advance(8)
		p = p[blocks8Bytes:]
	}
	return p
}
