package falcon

import "ctgauss/internal/prng"

// shakeRate is SHAKE256's rate in bytes: hashToPoint squeezes one rate
// block at a time.  It is even, so no 16-bit chunk straddles two blocks.
const shakeRate = 136

// hashToPoint maps salt‖message to a uniform c ∈ Z_q^N, N = len(out),
// into out with SHAKE256, taking 16-bit big-endian chunks and rejecting
// values ≥ 5·q to avoid modulo bias (the spec's HashToPoint).
func hashToPoint(out []uint32, salt, msg []byte) {
	sh := prng.NewSHAKE256()
	sh.Absorb(salt)
	sh.Absorb(msg)
	var buf [shakeRate]byte
	const limit = 5 * Q // 61445 < 65536
	for i := 0; i < len(out); {
		sh.Fill(buf[:])
		for j := 0; j < len(buf) && i < len(out); j += 2 {
			t := uint32(buf[j])<<8 | uint32(buf[j+1])
			if t < limit {
				out[i] = t % Q
				i++
			}
		}
	}
}
