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

// maxN is the largest ring degree ParamsFor supports, and the size of
// Verify's stack buffers.
const maxN = 1024

// Verify checks sig over msg: recompute c, s0 = c − s1·h mod q (centered),
// and test ‖(s0, s1)‖² ≤ β².  It transforms only s1: h's NTT form is
// computed by the key's first Verify and kept (see PublicKey), and the
// rest runs in fixed-size buffers on the stack, so it does not allocate.
func (pk *PublicKey) Verify(msg []byte, sig *Signature) error {
	n := pk.Params.N
	if sig == nil || len(sig.S1) != n || len(sig.Salt) != SaltLen || n > maxN || len(pk.H) != n {
		return ErrBadLength
	}
	var cBuf, prodBuf [maxN]uint32
	c, prod := cBuf[:n], prodBuf[:n]
	hashToPoint(c, sig.Salt, msg)

	for i, v := range sig.S1 {
		prod[i] = ntt.FromSigned(int64(v))
	}
	ntt.Forward(prod)
	ntt.Pointwise(prod, prod, pk.nttH())
	ntt.Inverse(prod)

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

// nttH returns H in NTT form, computing it on first use without a lock:
// verifiers that race to fill it compute the same values, and the first
// to store wins.
func (pk *PublicKey) nttH() []uint32 {
	if h := pk.hNTT.Load(); h != nil {
		return *h
	}
	h := make([]uint32, len(pk.H))
	for i, v := range pk.H {
		h[i] = uint32(v)
	}
	ntt.Forward(h)
	pk.hNTT.CompareAndSwap(nil, &h)
	return *pk.hNTT.Load()
}
