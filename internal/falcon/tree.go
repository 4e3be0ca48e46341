package falcon

import (
	"fmt"
	"math"

	"ctgauss/internal/fft"
)

// treeNode is one node of the LDL* (Falcon) tree.  Internal nodes hold the
// Fourier-domain L10 vector of their 2×2 LDL decomposition; leaves hold
// the standard deviation σ' = σ/√d for the two scalar Gaussians sampled at
// the recursion floor.
type treeNode struct {
	value       []complex128 // internal: l = G10/G00 (FFT, length n)
	left, right *treeNode
	leafSigma   float64 // valid when left == right == nil
}

func (t *treeNode) isLeaf() bool { return t.left == nil && t.right == nil }

// ffLDL recursively factors the Gram matrix [[g00, g01],[adj(g01), g11]]
// (rings of size len(g00)) into the Falcon tree.
func ffLDL(g00, g01, g11 []complex128, sigma float64) (*treeNode, error) {
	n := len(g00)
	// l = G10/G00 with G10 = adj(g01); d11 = g11 − l·adj(l)·g00.
	l := make([]complex128, n)
	d11 := make([]complex128, n)
	for j := 0; j < n; j++ {
		den := real(g00[j])
		if den <= 0 || math.IsNaN(den) {
			return nil, fmt.Errorf("falcon: non-positive Gram diagonal (%g) in ffLDL", den)
		}
		l[j] = conj(g01[j]) / complex(den, 0)
		d11[j] = g11[j] - l[j]*conj(l[j])*g00[j]
	}
	node := &treeNode{value: l}
	if n == 1 {
		sl, err := leafFrom(real(g00[0]), sigma)
		if err != nil {
			return nil, err
		}
		sr, err := leafFrom(real(d11[0]), sigma)
		if err != nil {
			return nil, err
		}
		node.left, node.right = sl, sr
		return node, nil
	}
	d0, d1 := fft.Split(g00)
	left, err := ffLDL(d0, d1, cloneVec(d0), sigma)
	if err != nil {
		return nil, err
	}
	e0, e1 := fft.Split(d11)
	right, err := ffLDL(e0, e1, cloneVec(e0), sigma)
	if err != nil {
		return nil, err
	}
	node.left, node.right = left, right
	return node, nil
}

func leafFrom(d, sigma float64) (*treeNode, error) {
	if d <= 0 || math.IsNaN(d) {
		return nil, fmt.Errorf("falcon: non-positive leaf diagonal %g", d)
	}
	s := sigma / math.Sqrt(d)
	if s > SigmaBase {
		return nil, fmt.Errorf("falcon: leaf σ' = %.4f exceeds base sampler σ = %g", s, SigmaBase)
	}
	return &treeNode{leafSigma: s}, nil
}

func conj(c complex128) complex128 { return complex(real(c), -imag(c)) }

func cloneVec(v []complex128) []complex128 {
	return append([]complex128(nil), v...)
}

// leafSigmas collects every leaf σ' (diagnostics and tests).
func (t *treeNode) leafSigmas(out []float64) []float64 {
	if t.isLeaf() {
		return append(out, t.leafSigma)
	}
	out = t.left.leafSigmas(out)
	return t.right.leafSigmas(out)
}

// ffLevel is the scratch of one ffSampling call at ring size n (n ≥ 2),
// two n-entry vectors: t holds t1's split halves, then t0 + (t1 − z1)·l
// and its split halves; z holds the two recursive calls' outputs, first
// z1's halves and then z0's.
type ffLevel struct{ t, z []complex128 }

// newFFLevels allocates the ffSampling scratch for ring size n, one
// level per size n, n/2, …, 2.
func newFFLevels(n int) []ffLevel {
	var levels []ffLevel
	for m := n; m >= 2; m /= 2 {
		levels = append(levels, ffLevel{t: make([]complex128, m), z: make([]complex128, m)})
	}
	return levels
}

// ffSampling draws (z0, z1) ≈ (t0, t1) jointly Gaussian over the lattice
// described by the tree: Falcon's fast Fourier nearest-plane analogue.
// t0, t1 and the outputs z0, z1 are Fourier-domain vectors of one ring
// size n; levels is newFFLevels(n) (or its tail, below the top).  It
// allocates nothing and leaves t0 and t1 unchanged.
func ffSampling(z0, z1, t0, t1 []complex128, node *treeNode, zs zSampler, levels []ffLevel) {
	n := len(t0)
	if n == 1 {
		zv1 := zs.sample(real(t1[0]), node.right.leafSigma)
		t0p := t0[0] + (t1[0]-complex(zv1, 0))*node.value[0]
		zv0 := zs.sample(real(t0p), node.left.leafSigma)
		z0[0], z1[0] = complex(zv0, 0), complex(zv1, 0)
		return
	}
	t, z := levels[0].t, levels[0].z
	te, to, ze, zo := t[:n/2], t[n/2:], z[:n/2], z[n/2:]
	fft.SplitTo(te, to, t1)
	ffSampling(ze, zo, te, to, node.right, zs, levels[1:])
	fft.MergeTo(z1, ze, zo)

	// t0 + (t1 − z1)·l; the conversion rounds the product before the
	// sum, so no platform fuses the two into one multiply-add.
	l := node.value
	for j := range t {
		t[j] = t0[j] + complex128((t1[j]-z1[j])*l[j])
	}
	fft.SplitTo(te, to, t)
	ffSampling(ze, zo, te, to, node.left, zs, levels[1:])
	fft.MergeTo(z0, ze, zo)
}
