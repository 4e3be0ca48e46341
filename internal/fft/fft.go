// Package fft implements the negacyclic complex FFT over ℝ[x]/(x^N+1)
// used by Falcon's keygen, LDL* tree construction and fast Fourier
// sampling.  A polynomial f of degree < N is represented in the Fourier
// domain by its evaluations at the N odd 2N-th roots of unity
// ζ_j = exp(iπ(2j+1)/N); split/merge move between a ring of size N and two
// rings of size N/2 entirely in the Fourier domain, which is what
// ffSampling traverses.
//
// Every transform has one arithmetic: FFTTo and InvFFTTo run MergeTo's and
// SplitTo's butterflies in place, and FFT, InvFFT, Split and Merge
// allocate their result and call those.  So an entry goes through the
// same operations in the same order whichever form computes it.
package fft

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"sync/atomic"
)

// rings holds the table of ring size N = 2^k at index k, filled on
// first use without a lock: goroutines that race to fill one entry
// compute the same values, and the first to store wins.
var rings [bits.UintSize]atomic.Pointer[ring]

// ring is the per-size table: the roots, and the terms SplitTo divides
// by.
type ring struct {
	// roots are the ζ_j, j < N.
	roots []complex128
	// div[j], j < N/2, is Smith's division by 2ζ_j.
	div []smith
}

// smith holds what Smith's algorithm (runtime.complex128div) computes
// from a divisor m alone: which component is larger in magnitude, their
// ratio and the denominator.  Dividing n by m is then
//
//	wide:  ((re n + im n·ratio)/denom, (im n − re n·ratio)/denom)
//	else:  ((re n·ratio + im n)/denom, (im n·ratio − re n)/denom)
//
// operation for operation what the / operator does, except when both
// halves come out NaN, where complex128div goes on to correct infinities
// and zeros (C99 Annex G).
type smith struct {
	ratio, denom float64
	// wide reports |re m| ≥ |im m|.
	wide bool
}

// smithTerms precomputes Smith's algorithm for dividing by m, with the
// same expressions as complex128div.
func smithTerms(m complex128) smith {
	if math.Abs(real(m)) >= math.Abs(imag(m)) {
		ratio := imag(m) / real(m)
		return smith{ratio: ratio, denom: real(m) + ratio*imag(m), wide: true}
	}
	ratio := real(m) / imag(m)
	return smith{ratio: ratio, denom: imag(m) + ratio*real(m)}
}

// logSize returns log₂ n, panicking unless n is a positive power of two.
func logSize(n int) int {
	if n <= 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("fft: size %d is not a positive power of two", n))
	}
	return bits.TrailingZeros(uint(n))
}

// ringOf returns the table for ring size n (a power of two).
func ringOf(n int) *ring {
	slot := &rings[logSize(n)]
	if r := slot.Load(); r != nil {
		return r
	}
	r := &ring{roots: make([]complex128, n), div: make([]smith, n/2)}
	for j := range r.roots {
		theta := math.Pi * float64(2*j+1) / float64(n)
		r.roots[j] = cmplx.Exp(complex(0, theta))
	}
	for j := range r.div {
		r.div[j] = smithTerms(2 * r.roots[j])
	}
	slot.CompareAndSwap(nil, r)
	return slot.Load()
}

// Roots returns the N evaluation points ζ_j for ring size N (power of
// two).  The slice is shared by every caller and must not be modified.
func Roots(n int) []complex128 { return ringOf(n).roots }

// FFT evaluates the real-coefficient polynomial f (length N) at the ζ_j
// and returns the Fourier-domain vector.
func FFT(f []float64) []complex128 {
	F := make([]complex128, len(f))
	FFTTo(F, f)
	return F
}

// FFTTo is FFT into F, which must have len(f) entries.  It places f in
// bit-reversed order and merges adjacent blocks bottom up, which is the
// recursion f ↦ Merge(FFT(even f), FFT(odd f)) run in place.
func FFTTo(F []complex128, f []float64) {
	n := len(f)
	shift := bits.UintSize - logSize(n)
	for i, v := range f {
		F[bits.Reverse(uint(i))>>shift] = complex(v, 0)
	}
	for m := 2; m <= n; m *= 2 {
		for k := 0; k < n; k += m {
			MergeTo(F[k:k+m], F[k:k+m/2], F[k+m/2:k+m])
		}
	}
}

// InvFFT interpolates a Fourier-domain vector back to real coefficients.
// The imaginary parts (rounding noise) are discarded.
func InvFFT(F []complex128) []float64 {
	f := make([]float64, len(F))
	InvFFTTo(f, append([]complex128(nil), F...))
	return f
}

// InvFFTTo is InvFFT into f, which must have len(F) entries, using F as
// its working vector: F is overwritten.  It splits blocks in place top
// down and reads the result in bit-reversed order, which is the
// recursion F ↦ interleave(InvFFT(Fe), InvFFT(Fo)) with
// (Fe, Fo) = Split(F).
func InvFFTTo(f []float64, F []complex128) {
	n := len(F)
	shift := bits.UintSize - logSize(n)
	for m := n; m >= 2; m /= 2 {
		for k := 0; k < n; k += m {
			SplitTo(F[k:k+m/2], F[k+m/2:k+m], F[k:k+m])
		}
	}
	for i := range f {
		f[i] = real(F[bits.Reverse(uint(i))>>shift])
	}
}

// Split maps F ∈ FFT(ring N) to (Fe, Fo) ∈ FFT(ring N/2)²: the Fourier
// images of the even and odd half polynomials with f = fe(x²) + x·fo(x²).
func Split(F []complex128) (fe, fo []complex128) {
	fe = make([]complex128, len(F)/2)
	fo = make([]complex128, len(F)/2)
	SplitTo(fe, fo, F)
	return fe, fo
}

// SplitTo is Split into fe and fo, of len(F)/2 entries each.  They may
// be F's own halves, F[:N/2] and F[N/2:]; no other overlap is allowed.
//
// It computes fe[j] = (a+b)/2 and fo[j] = (a−b)/(2ζ_j) bit for bit as
// the / operator does, without its runtime call: halving is Smith's
// algorithm with ratio 0 and denominator 2 written out, and the
// division by 2ζ_j uses the ring table's precomputed Smith terms.  Only
// an entry whose two halves both come out NaN (a NaN or an infinity in
// the input) is recomputed with /, which applies complex128div's
// corrections.
func SplitTo(fe, fo, F []complex128) {
	r := ringOf(len(F))
	h := len(F) / 2
	z, div := r.roots[:h], r.div[:h]
	fe, fo, lo, hi := fe[:h], fo[:h], F[:h], F[h:2*h]
	for j, s := range div {
		a, b := lo[j], hi[j]
		sr, si := real(a)+real(b), imag(a)+imag(b)
		e, f := (sr+si*0)/2, (si-sr*0)/2
		if e != e && f != f {
			fe[j] = (a + b) / 2
		} else {
			fe[j] = complex(e, f)
		}
		dr, di := real(a)-real(b), imag(a)-imag(b)
		if s.wide {
			e, f = (dr+di*s.ratio)/s.denom, (di-dr*s.ratio)/s.denom
		} else {
			e, f = (dr*s.ratio+di)/s.denom, (di*s.ratio-dr)/s.denom
		}
		if e != e && f != f {
			fo[j] = (a - b) / (2 * z[j])
		} else {
			fo[j] = complex(e, f)
		}
	}
}

// Merge is the inverse of Split.
func Merge(fe, fo []complex128) []complex128 {
	F := make([]complex128, 2*len(fe))
	MergeTo(F, fe, fo)
	return F
}

// MergeTo is Merge into F, of 2·len(fe) entries.  fe and fo may be F's
// own halves, F[:N/2] and F[N/2:]; no other overlap is allowed.
func MergeTo(F, fe, fo []complex128) {
	z := ringOf(len(F)).roots
	h := len(fe)
	for j := 0; j < h; j++ {
		a, b := fe[j], fo[j]
		F[j] = a + z[j]*b
		F[j+h] = a - z[j]*b
	}
}

// Mul returns the pointwise product (ring multiplication in FFT domain).
func Mul(a, b []complex128) []complex128 {
	out := make([]complex128, len(a))
	for i := range a {
		out[i] = a[i] * b[i]
	}
	return out
}

// Add returns the pointwise sum.
func Add(a, b []complex128) []complex128 {
	out := make([]complex128, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

// Sub returns the pointwise difference a−b.
func Sub(a, b []complex128) []complex128 {
	out := make([]complex128, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// Div returns the pointwise quotient a/b.
func Div(a, b []complex128) []complex128 {
	out := make([]complex128, len(a))
	for i := range a {
		out[i] = a[i] / b[i]
	}
	return out
}

// Adj returns the Fourier image of the ring adjoint f*(x) = f(1/x): the
// complex conjugate pointwise.
func Adj(a []complex128) []complex128 {
	out := make([]complex128, len(a))
	for i := range a {
		out[i] = cmplx.Conj(a[i])
	}
	return out
}

// Scale multiplies pointwise by a real scalar.
func Scale(a []complex128, s float64) []complex128 {
	out := make([]complex128, len(a))
	for i := range a {
		out[i] = a[i] * complex(s, 0)
	}
	return out
}
