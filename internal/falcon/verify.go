package falcon

import (
	"errors"

	"ctgauss/internal/ntt"
)

// Verification errors.
var (
	ErrBadSignature = errors.New("falcon: signature rejected")
	ErrBadLength    = errors.New("falcon: malformed signature")
)

// Verify checks sig over msg: recompute c, s0 = c − s1·h mod q (centered),
// and test ‖(s0, s1)‖² ≤ β².
func (pk *PublicKey) Verify(msg []byte, sig *Signature) error {
	n := pk.Params.N
	if sig == nil || len(sig.S1) != n || len(sig.Salt) != SaltLen {
		return ErrBadLength
	}
	c := make([]uint32, n)
	hashToPoint(c, sig.Salt, msg)

	s1q := make([]uint32, n)
	for i, v := range sig.S1 {
		s1q[i] = ntt.FromSigned(int64(v))
	}
	hq := make([]uint32, n)
	for i, v := range pk.H {
		hq[i] = uint32(v)
	}
	prod := ntt.MulPoly(s1q, hq)

	var norm int64
	for i := 0; i < n; i++ {
		s0 := int64(ntt.Center(uint32((c[i] + Q - prod[i]) % Q)))
		norm += s0*s0 + int64(sig.S1[i])*int64(sig.S1[i])
	}
	if norm > pk.Params.BoundSq || norm == 0 {
		return ErrBadSignature
	}
	return nil
}
