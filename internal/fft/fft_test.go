package fft

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"
)

func randomPoly(rng *rand.Rand, n int) []float64 {
	f := make([]float64, n)
	for i := range f {
		f[i] = float64(rng.Intn(41) - 20)
	}
	return f
}

// naive negacyclic multiplication in coefficient domain.
func negacyclicMul(a, b []float64) []float64 {
	n := len(a)
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			k := i + j
			v := a[i] * b[j]
			if k >= n {
				out[k-n] -= v
			} else {
				out[k] += v
			}
		}
	}
	return out
}

func maxDiff(a, b []float64) float64 {
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func TestFFTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 8, 64, 512, 1024} {
		f := randomPoly(rng, n)
		got := InvFFT(FFT(f))
		if d := maxDiff(f, got); d > 1e-8 {
			t.Fatalf("n=%d: roundtrip error %g", n, d)
		}
	}
}

func TestFFTMulMatchesNegacyclic(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{2, 8, 64, 256} {
		a := randomPoly(rng, n)
		b := randomPoly(rng, n)
		want := negacyclicMul(a, b)
		got := InvFFT(Mul(FFT(a), FFT(b)))
		if d := maxDiff(want, got); d > 1e-6*float64(n) {
			t.Fatalf("n=%d: mul error %g", n, d)
		}
	}
}

func TestSplitMergeInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	F := FFT(randomPoly(rng, 64))
	fe, fo := Split(F)
	back := Merge(fe, fo)
	for i := range F {
		if d := F[i] - back[i]; math.Hypot(real(d), imag(d)) > 1e-9 {
			t.Fatalf("split/merge not inverse at %d", i)
		}
	}
}

func TestSplitHalvesAreFFTOfHalfPolys(t *testing.T) {
	// f(x) = fe(x²) + x·fo(x²); Split(FFT(f)) must equal FFT(fe), FFT(fo).
	rng := rand.New(rand.NewSource(4))
	n := 32
	f := randomPoly(rng, n)
	fe := make([]float64, n/2)
	fo := make([]float64, n/2)
	for i := 0; i < n/2; i++ {
		fe[i] = f[2*i]
		fo[i] = f[2*i+1]
	}
	se, so := Split(FFT(f))
	we, wo := FFT(fe), FFT(fo)
	for i := 0; i < n/2; i++ {
		if d := se[i] - we[i]; math.Hypot(real(d), imag(d)) > 1e-8 {
			t.Fatalf("even half mismatch at %d", i)
		}
		if d := so[i] - wo[i]; math.Hypot(real(d), imag(d)) > 1e-8 {
			t.Fatalf("odd half mismatch at %d", i)
		}
	}
}

func TestAdjIsRingAdjoint(t *testing.T) {
	// adj(f)(x) = f0 − f_{n-1}x − … − f1 x^{n-1} in the negacyclic ring.
	rng := rand.New(rand.NewSource(5))
	n := 16
	f := randomPoly(rng, n)
	adj := make([]float64, n)
	adj[0] = f[0]
	for i := 1; i < n; i++ {
		adj[i] = -f[n-i]
	}
	got := InvFFT(Adj(FFT(f)))
	if d := maxDiff(adj, got); d > 1e-8 {
		t.Fatalf("adjoint mismatch: %g", d)
	}
}

func TestAddSubDivScale(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 8
	a, b := randomPoly(rng, n), randomPoly(rng, n)
	b[0] += 100 // keep b away from roots of zero in FFT domain
	A, B := FFT(a), FFT(b)
	sum := InvFFT(Add(A, B))
	for i := range a {
		if math.Abs(sum[i]-(a[i]+b[i])) > 1e-8 {
			t.Fatal("Add wrong")
		}
	}
	diff := InvFFT(Sub(A, B))
	for i := range a {
		if math.Abs(diff[i]-(a[i]-b[i])) > 1e-8 {
			t.Fatal("Sub wrong")
		}
	}
	q := Div(Mul(A, B), B)
	qc := InvFFT(q)
	if d := maxDiff(qc, a); d > 1e-6 {
		t.Fatalf("Div(Mul(a,b),b) != a: %g", d)
	}
	s := InvFFT(Scale(A, 2.5))
	for i := range a {
		if math.Abs(s[i]-2.5*a[i]) > 1e-8 {
			t.Fatal("Scale wrong")
		}
	}
}

func TestRootsPanicsOnBadSize(t *testing.T) {
	for name, call := range map[string]func(){
		"Roots(3)": func() { Roots(3) },
		"Roots(0)": func() { Roots(0) },
		"FFTTo":    func() { FFTTo(make([]complex128, 6), make([]float64, 6)) },
		"InvFFTTo": func() { InvFFTTo(make([]float64, 6), make([]complex128, 6)) },
		"SplitTo":  func() { SplitTo(make([]complex128, 3), make([]complex128, 3), make([]complex128, 6)) },
		"MergeTo":  func() { MergeTo(make([]complex128, 6), make([]complex128, 3), make([]complex128, 3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			call()
		}()
	}
}

func TestHermitianSymmetryOfRealFFT(t *testing.T) {
	// For real f, F[n-1-j] = conj(F[j]) (ζ_{n-1-j} = conj(ζ_j)).
	rng := rand.New(rand.NewSource(7))
	n := 16
	F := FFT(randomPoly(rng, n))
	for j := 0; j < n/2; j++ {
		d := F[n-1-j] - complex(real(F[j]), -imag(F[j]))
		if math.Hypot(real(d), imag(d)) > 1e-9 {
			t.Fatalf("hermitian symmetry broken at %d", j)
		}
	}
}

// Reference transforms: the recursive, allocating definitions of the
// FFT, its inverse, Split, Merge and the roots.  Falcon's key and
// signature pins rest on their exact floating-point results, so the
// in-place forms must match them bit for bit.

func refRoots(n int) []complex128 {
	r := make([]complex128, n)
	for j := 0; j < n; j++ {
		theta := math.Pi * float64(2*j+1) / float64(n)
		r[j] = cmplx.Exp(complex(0, theta))
	}
	return r
}

func refFFTComplex(f []complex128) []complex128 {
	n := len(f)
	if n == 1 {
		return []complex128{f[0]}
	}
	even := make([]complex128, n/2)
	odd := make([]complex128, n/2)
	for i := 0; i < n/2; i++ {
		even[i] = f[2*i]
		odd[i] = f[2*i+1]
	}
	fe := refFFTComplex(even)
	fo := refFFTComplex(odd)
	return refMerge(fe, fo)
}

func refInvFFTComplex(F []complex128) []complex128 {
	n := len(F)
	if n == 1 {
		return []complex128{F[0]}
	}
	fe, fo := refSplit(F)
	even := refInvFFTComplex(fe)
	odd := refInvFFTComplex(fo)
	out := make([]complex128, n)
	for i := 0; i < n/2; i++ {
		out[2*i] = even[i]
		out[2*i+1] = odd[i]
	}
	return out
}

func refSplit(F []complex128) (fe, fo []complex128) {
	n := len(F)
	z := refRoots(n)
	fe = make([]complex128, n/2)
	fo = make([]complex128, n/2)
	for j := 0; j < n/2; j++ {
		a, b := F[j], F[j+n/2]
		fe[j] = (a + b) / 2
		fo[j] = (a - b) / (2 * z[j])
	}
	return fe, fo
}

func refMerge(fe, fo []complex128) []complex128 {
	n := 2 * len(fe)
	z := refRoots(n)
	F := make([]complex128, n)
	for j := 0; j < n/2; j++ {
		F[j] = fe[j] + z[j]*fo[j]
		F[j+n/2] = fe[j] - z[j]*fo[j]
	}
	return F
}

func randomComplex(rng *rand.Rand, n int) []complex128 {
	v := make([]complex128, n)
	for i := range v {
		v[i] = complex(rng.NormFloat64()*1e3, rng.NormFloat64()*1e3)
	}
	return v
}

func sameBits(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

func requireSameBits(t *testing.T, what string, got, want []complex128) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, want %d", what, len(got), len(want))
	}
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("%s: entry %d is %v, want %v", what, i, got[i], want[i])
		}
	}
}

func TestInPlaceMatchesRecursiveBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for n := 1; n <= 1024; n *= 2 {
		requireSameBits(t, "Roots", Roots(n), refRoots(n))

		// FFT of a real vector.
		f := make([]float64, n)
		fc := make([]complex128, n)
		for i := range f {
			f[i] = rng.NormFloat64() * 1e3
			fc[i] = complex(f[i], 0)
		}
		F := make([]complex128, n)
		FFTTo(F, f)
		requireSameBits(t, "FFTTo", F, refFFTComplex(fc))
		requireSameBits(t, "FFT", FFT(f), F)

		// Inverse FFT: the allocating form keeps its input.
		G := randomComplex(rng, n)
		G0 := append([]complex128(nil), G...)
		ref := refInvFFTComplex(G)
		want := make([]complex128, n)
		for i, v := range ref {
			want[i] = complex(real(v), 0)
		}
		back := make([]complex128, n)
		for i, v := range InvFFT(G) {
			back[i] = complex(v, 0)
		}
		requireSameBits(t, "InvFFT", back, want)
		requireSameBits(t, "InvFFT input", G, G0)
		got := make([]float64, n)
		InvFFTTo(got, G)
		for i, v := range got {
			back[i] = complex(v, 0)
		}
		requireSameBits(t, "InvFFTTo", back, want)

		if n == 1 {
			continue
		}
		// Split and Merge, into separate buffers and into F's halves.
		H := randomComplex(rng, n)
		we, wo := refSplit(H)
		fe, fo := make([]complex128, n/2), make([]complex128, n/2)
		SplitTo(fe, fo, H)
		requireSameBits(t, "SplitTo even", fe, we)
		requireSameBits(t, "SplitTo odd", fo, wo)
		se, so := Split(H)
		requireSameBits(t, "Split even", se, we)
		requireSameBits(t, "Split odd", so, wo)
		inPlace := append([]complex128(nil), H...)
		SplitTo(inPlace[:n/2], inPlace[n/2:], inPlace)
		requireSameBits(t, "SplitTo in place", inPlace, append(we, wo...))

		wm := refMerge(fe, fo)
		M := make([]complex128, n)
		MergeTo(M, fe, fo)
		requireSameBits(t, "MergeTo", M, wm)
		requireSameBits(t, "Merge", Merge(fe, fo), wm)
		MergeTo(inPlace, inPlace[:n/2], inPlace[n/2:])
		requireSameBits(t, "MergeTo in place", inPlace, wm)
	}
}

// TestSplitToSpecialValuesBitForBit: SplitTo writes the / operator's
// complex division out by hand, so it must match it on the inputs where
// complex128div's branches and corrections matter too: signed zeros,
// infinities, NaN, subnormals, values whose sum or difference
// overflows, and all of them against ordinary values.  NaN carries one
// payload (math.NaN's): which of two different NaN payloads an addition
// keeps depends on the order the compiler gives its operands, in the
// reference as much as in SplitTo.
func TestSplitToSpecialValuesBitForBit(t *testing.T) {
	specials := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		5e-324, -5e-324, 2.2250738585072e-308, -1.5e-310,
		math.MaxFloat64, -math.MaxFloat64, 1, -1, 3.5, -1e3,
	}
	rng := rand.New(rand.NewSource(23))
	pick := func() float64 {
		if rng.Intn(4) == 0 {
			return rng.NormFloat64() * 1e3
		}
		return specials[rng.Intn(len(specials))]
	}
	for n := 2; n <= 1024; n *= 2 {
		for trial := 0; trial < 4; trial++ {
			H := make([]complex128, n)
			for i := range H {
				H[i] = complex(pick(), pick())
			}
			// Every pair of specials meets at least once at n = 1024,
			// in both halves and in both components.
			if n == 1024 && trial == 0 {
				k := 0
				for _, x := range specials {
					for _, y := range specials {
						H[k%(n/2)] = complex(x, y)
						H[k%(n/2)+n/2] = complex(y, x)
						k++
					}
				}
			}
			we, wo := refSplit(H)
			fe, fo := make([]complex128, n/2), make([]complex128, n/2)
			SplitTo(fe, fo, H)
			requireSameBits(t, fmt.Sprintf("n=%d SplitTo even", n), fe, we)
			requireSameBits(t, fmt.Sprintf("n=%d SplitTo odd", n), fo, wo)
			SplitTo(H[:n/2], H[n/2:], H)
			requireSameBits(t, fmt.Sprintf("n=%d SplitTo in place", n), H, append(we, wo...))
		}
	}
}

// TestRootsConcurrentFirstUse: goroutines that fill one table entry at
// the same time must all get the serial values, and one shared slice.
func TestRootsConcurrentFirstUse(t *testing.T) {
	const goroutines = 8
	sizes := []int{1 << 11, 1 << 12, 1 << 13}
	for _, n := range sizes {
		rings[logSize(n)].Store(nil) // first use, even under -count
	}
	got := make([][][]complex128, goroutines)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for _, n := range sizes {
				got[g] = append(got[g], Roots(n))
			}
		}()
	}
	close(start)
	wg.Wait()
	for i, n := range sizes {
		want := refRoots(n)
		shared := Roots(n)
		for g := range got {
			requireSameBits(t, "Roots", got[g][i], want)
			if &got[g][i][0] != &shared[0] {
				t.Fatalf("n=%d: goroutine %d kept its own table", n, g)
			}
		}
	}
}
