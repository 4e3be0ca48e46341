package falcon

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"ctgauss/internal/fft"
	"ctgauss/internal/prng"
	"ctgauss/internal/sampler"
)

// Signature is a Falcon signature: the salt and the transmitted half s1
// (the spec's s2); verification recomputes s0 = c − s1·h mod q.
type Signature struct {
	Salt []byte
	S1   []int16
}

// Signer holds per-instance signing state: the key, the SamplerZ
// backend (a rejection sampler over a fixed base, or the convolution
// layer), a PRNG for salts, and the fixed workspace, sized from the
// key's ring degree, that every Sign call runs in; so a Signer is not
// safe for concurrent use (SignerPool is).
type Signer struct {
	sk   *PrivateKey
	zs   zSampler
	salt *prng.BitReader
	ws   workspace
	// Attempts counts signing attempts, the first of each signature
	// included, so Attempts per signature is at least 1 (diagnostics).
	Attempts uint64
}

// workspace is the memory Sign runs in, allocated once per Signer.
// Buffers whose lifetimes do not overlap share storage: r holds c as
// reals, then each half of s before rounding; t0 and t1 hold the
// ffSampling target, then s0 and s1 in FFT form.
type workspace struct {
	salt   []byte
	c      []uint32
	r      []float64
	cFFT   []complex128
	t0, t1 []complex128
	z0, z1 []complex128
	s0, s1 []int16
	levels []ffLevel
}

func newWorkspace(n int) workspace {
	return workspace{
		salt:   make([]byte, SaltLen),
		c:      make([]uint32, n),
		r:      make([]float64, n),
		cFFT:   make([]complex128, n),
		t0:     make([]complex128, n),
		t1:     make([]complex128, n),
		z0:     make([]complex128, n),
		z1:     make([]complex128, n),
		s0:     make([]int16, n),
		s1:     make([]int16, n),
		levels: newFFLevels(n),
	}
}

// NewSigner builds a signer.  base is the discrete Gaussian base sampler
// (σ must be SigmaBase = 2); src supplies salts and the SamplerZ rejection
// randomness.
func NewSigner(sk *PrivateKey, base sampler.Sampler, src prng.Source) (*Signer, error) {
	bits := prng.NewBitReader(src)
	return newSignerWithZ(sk, newSamplerZ(base, bits, sk.Params.SigmaMin), bits)
}

// newSignerWithZ wires a signer over an explicit SamplerZ backend.
func newSignerWithZ(sk *PrivateKey, zs zSampler, salt *prng.BitReader) (*Signer, error) {
	if !sk.ready {
		if err := sk.precompute(); err != nil {
			return nil, err
		}
	}
	return &Signer{sk: sk, zs: zs, salt: salt, ws: newWorkspace(sk.Params.N)}, nil
}

// BaseSampler exposes the base sampler (for bit-count statistics) of a
// rejection-backed signer; convolve-backed signers return nil (their
// bit ledger lives on the convolution layer).
func (s *Signer) BaseSampler() sampler.Sampler {
	if zs, ok := s.zs.(*samplerZState); ok {
		return zs.base
	}
	return nil
}

// ErrSignFailed is returned when no short-enough signature was found in
// the attempt budget.
var ErrSignFailed = errors.New("falcon: signing failed to find a short vector")

// Sign produces a signature for msg.  It works in the Signer's workspace
// and allocates only the returned signature.
//
// Signatures are pinned byte for byte (TestKnownAnswers), so each
// floating-point expression keeps its operations and their order:
// s0 = c − (z0⊛g + z1⊛G) sums the two products before subtracting, for
// instance.  The complex128 conversions round each product before it is
// added, so no platform fuses the two into one multiply-add.
func (s *Signer) Sign(msg []byte) (*Signature, error) {
	sk, w := s.sk, &s.ws
	qInv := complex(1.0/float64(Q), 0)
	for attempt := 0; attempt < 64; attempt++ {
		s.Attempts++
		s.salt.Bytes(w.salt)
		hashToPoint(w.c, w.salt, msg)
		for i, v := range w.c {
			w.r[i] = float64(v)
		}
		fft.FFTTo(w.cFFT, w.r)

		// t = (c, 0)·B⁻¹ = (c⊛(−F)/q, c⊛f/q).
		for i, c := range w.cFFT {
			w.t0[i] = complex128(c*sk.negBigFFFT[i]) * qInv
			w.t1[i] = complex128(c*sk.fFFT[i]) * qInv
		}
		ffSampling(w.z0, w.z1, w.t0, w.t1, sk.tree, s.zs, w.levels)

		// s = (t − z)·B computed directly: s0 = c − (z0⊛g + z1⊛G),
		// s1 = z0⊛f + z1⊛F; all integer vectors, recovered by rounding.
		s0f, s1f := w.t0, w.t1
		for i, c := range w.cFFT {
			z0, z1 := w.z0[i], w.z1[i]
			s0f[i] = c - (complex128(z0*sk.gFFT[i]) + complex128(z1*sk.bigGFFT[i]))
			s1f[i] = complex128(z0*sk.fFFT[i]) + complex128(z1*sk.bigFFFT[i])
		}
		fft.InvFFTTo(w.r, s0f)
		if !roundVec(w.s0, w.r) {
			continue
		}
		fft.InvFFTTo(w.r, s1f)
		if !roundVec(w.s1, w.r) {
			continue
		}
		var norm int64
		for i := range w.s0 {
			norm += int64(w.s0[i])*int64(w.s0[i]) + int64(w.s1[i])*int64(w.s1[i])
		}
		if norm > sk.Params.BoundSq || norm == 0 {
			continue
		}
		return &Signature{Salt: slices.Clone(w.salt), S1: slices.Clone(w.s1)}, nil
	}
	return nil, ErrSignFailed
}

// roundVec rounds near-integer floats v into out, reporting false on an
// implausible magnitude (defence against float blow-ups).
func roundVec(out []int16, v []float64) bool {
	for i, x := range v {
		r := math.Round(x)
		if math.Abs(x-r) > 0.4 || math.Abs(r) > 32000 {
			return false
		}
		out[i] = int16(r)
	}
	return true
}

// SampleStats reports SamplerZ acceptance statistics.
func (s *Signer) SampleStats() string {
	accepted, rejected := s.zs.acceptStats()
	total := accepted + rejected
	if total == 0 {
		return "no samples"
	}
	return fmt.Sprintf("accept rate %.1f%% (%d of %d)",
		100*float64(accepted)/float64(total), accepted, total)
}
