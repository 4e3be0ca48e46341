package falcon

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"ctgauss/internal/fft"
	"ctgauss/internal/ntru"
	"ctgauss/internal/ntt"
	"ctgauss/internal/poly"
	"ctgauss/internal/sampler"
)

// PrivateKey is the NTRU trapdoor basis plus the precomputed Falcon tree.
type PrivateKey struct {
	Params Params
	F      []int16 // f
	G      []int16 // g
	BigF   []int16 // F
	BigG   []int16 // G
	H      []uint16

	tree *treeNode
	// The FFT forms of g, G, f, F and −F, the vectors Sign multiplies by.
	gFFT, bigGFFT, fFFT, bigFFFT, negBigFFFT []complex128

	ready bool
}

// PublicKey is h = g·f⁻¹ mod q.  Its first Verify computes and keeps
// h's NTT form, so H must not change after a key has verified anything.
type PublicKey struct {
	Params Params
	H      []uint16

	hNTT atomic.Pointer[[]uint32]
}

// Public returns the public key.
func (sk *PrivateKey) Public() *PublicKey {
	return &PublicKey{Params: sk.Params, H: append([]uint16(nil), sk.H...)}
}

// ErrKeygenFailed is returned when no valid key was found within the
// attempt budget (astronomically unlikely with a healthy sampler).
var ErrKeygenFailed = errors.New("falcon: key generation failed after too many attempts")

// GenerateKey samples an NTRU trapdoor using gauss as the source of the
// discrete Gaussian coefficients of f and g (σ must be ≈ params.SigmaFG;
// Keygen in this repo always builds it with the bitsliced pipeline).
func GenerateKey(params Params, gauss sampler.Sampler) (*PrivateKey, error) {
	n := params.N
	for attempt := 0; attempt < 256; attempt++ {
		f := make([]int16, n)
		g := make([]int16, n)
		for i := 0; i < n; i++ {
			f[i] = int16(gauss.Next())
			g[i] = int16(gauss.Next())
		}
		if !keyNormsOK(params, f, g) {
			continue
		}
		fq := make([]uint32, n)
		for i, v := range f {
			fq[i] = ntt.FromSigned(int64(v))
		}
		if !ntt.Invertible(fq) {
			continue
		}
		fP := polyFromInt16(f)
		gP := polyFromInt16(g)
		FP, GP, err := ntru.Solve(fP, gP, Q)
		if err != nil {
			continue
		}
		bigF, ok1 := polyToInt16(FP)
		bigG, ok2 := polyToInt16(GP)
		if !ok1 || !ok2 {
			continue // coefficients out of int16 range: resample
		}
		finv, err := ntt.Inv(fq)
		if err != nil {
			continue
		}
		gq := make([]uint32, n)
		for i, v := range g {
			gq[i] = ntt.FromSigned(int64(v))
		}
		hq := ntt.MulPoly(gq, finv)
		h := make([]uint16, n)
		for i, v := range hq {
			h[i] = uint16(v)
		}
		sk := &PrivateKey{Params: params, F: f, G: g, BigF: bigF, BigG: bigG, H: h}
		if err := sk.precompute(); err != nil {
			continue
		}
		return sk, nil
	}
	return nil, ErrKeygenFailed
}

// keyNormsOK enforces the spec's γ ≤ 1.17√q quality condition on (f, g):
// both the basis vector (g, −f) and its dual-direction image must be short
// enough that every ffSampling leaf σ' lies in [σmin, σmax].
func keyNormsOK(params Params, f, g []int16) bool {
	n := params.N
	limit := 1.17 * 1.17 * Q
	var norm1 float64
	for i := 0; i < n; i++ {
		norm1 += float64(f[i])*float64(f[i]) + float64(g[i])*float64(g[i])
	}
	if norm1 > limit {
		return false
	}
	ff := fft.FFT(int16ToFloat(f))
	gf := fft.FFT(int16ToFloat(g))
	var norm2 float64
	for j := 0; j < n; j++ {
		d := real(ff[j])*real(ff[j]) + imag(ff[j])*imag(ff[j]) +
			real(gf[j])*real(gf[j]) + imag(gf[j])*imag(gf[j])
		if d < 1e-9 {
			return false
		}
		norm2 += Q * Q / d
	}
	norm2 /= float64(n)
	return norm2 <= limit
}

// precompute builds the FFT basis and the LDL* (Falcon) tree.
func (sk *PrivateKey) precompute() error {
	fF := fft.FFT(int16ToFloat(sk.F))
	gF := fft.FFT(int16ToFloat(sk.G))
	FF := fft.FFT(int16ToFloat(sk.BigF))
	GF := fft.FFT(int16ToFloat(sk.BigG))

	// B = [[g, −f], [G, −F]].  Sign's f, F and −F come from B's entries
	// through these exact Scale calls: scaling by ±1 can flip the sign of
	// a zero, so other derivations could move a signature's low bits.
	negF := fft.Scale(fF, -1)
	negBF := fft.Scale(FF, -1)
	sk.gFFT, sk.bigGFFT = gF, GF
	sk.fFFT = fft.Scale(negF, -1)
	sk.bigFFFT = fft.Scale(negBF, -1)
	sk.negBigFFFT = fft.Scale(negBF, 1)

	// Gram of B.
	g00 := fft.Add(fft.Mul(gF, fft.Adj(gF)), fft.Mul(fF, fft.Adj(fF)))
	g01 := fft.Add(fft.Mul(gF, fft.Adj(GF)), fft.Mul(fF, fft.Adj(FF)))
	g11 := fft.Add(fft.Mul(GF, fft.Adj(GF)), fft.Mul(FF, fft.Adj(FF)))

	tree, err := ffLDL(g00, g01, g11, sk.Params.Sigma)
	if err != nil {
		return err
	}
	sk.tree = tree
	sk.ready = true
	return nil
}

func polyFromInt16(v []int16) poly.P {
	cs := make([]int64, len(v))
	for i, x := range v {
		cs[i] = int64(x)
	}
	return poly.FromInt64(cs)
}

func polyToInt16(p poly.P) ([]int16, bool) {
	out := make([]int16, p.N())
	for i, c := range p.Coeffs {
		if !c.IsInt64() {
			return nil, false
		}
		v := c.Int64()
		if v < math.MinInt16 || v > math.MaxInt16 {
			return nil, false
		}
		out[i] = int16(v)
	}
	return out, true
}

func int16ToFloat(v []int16) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = float64(x)
	}
	return out
}

// CheckKey validates the NTRU relation fG − gF = q and h·f = g mod q —
// used by tests and key import.
func (sk *PrivateKey) CheckKey() error {
	if err := ntru.Verify(polyFromInt16(sk.F), polyFromInt16(sk.G),
		polyFromInt16(sk.BigF), polyFromInt16(sk.BigG), Q); err != nil {
		return err
	}
	n := sk.Params.N
	fq := make([]uint32, n)
	gq := make([]uint32, n)
	hq := make([]uint32, n)
	for i := 0; i < n; i++ {
		fq[i] = ntt.FromSigned(int64(sk.F[i]))
		gq[i] = ntt.FromSigned(int64(sk.G[i]))
		hq[i] = uint32(sk.H[i])
	}
	hf := ntt.MulPoly(hq, fq)
	for i := 0; i < n; i++ {
		if hf[i] != gq[i] {
			return fmt.Errorf("falcon: h·f != g at coefficient %d", i)
		}
	}
	return nil
}
