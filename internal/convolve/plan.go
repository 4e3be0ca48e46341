package convolve

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// A plan fixes how one target σ is synthesized from the base set.  The
// proposal is a Micciancio–Walter-style convolution ladder: a binary
// tree whose leaves draw base members and whose internal nodes combine
// subtrees as a·L + R, flattened into the linear form
//
//	x = Σᵢ cᵢ·xᵢ   (xᵢ a base draw, cᵢ the product of a's on its path)
//
// so one trial is a fixed sequence of base draws and a branch-free
// dot product.  The proposal width is σ_p = √(Σ cᵢ²·σ(baseᵢ)²) ≥ σ,
// chosen minimal over a precomputed recipe menu, and the bimodal
// randomized-rounding step (lanes.go) reshapes the dominating proposal
// to exactly D_{ℤ,σ,μ}.
//
// Soundness of the combine: scaling a lattice Gaussian puts a·L on the
// coarse grid aℤ, which the sibling R — a width-w_R Gaussian supported
// on all of ℤ — smooths back to a Gaussian on ℤ provided w_R ≥ a (the
// smoothing condition; the residual non-Gaussianity is then
// ≈ 2·exp(−2π²·(w_R/a)²) ≤ 2·e^(−2π²) ≈ 5·10⁻⁹ per node, far below
// anything a statistical test can resolve).  Every recipe in the menu
// respects w_R ≥ a at every node; the naive flat combine k·X + Y with
// k ≫ σ_Y — which puts visible bumps at the kℤ grid — is therefore
// unrepresentable by construction.
//
// Plans depend only on the public request parameter σ, never on sampled
// values, so plan selection may branch freely.  It is a binary search
// over the menu, whose recipes are flattened once at construction, so
// a plan is rebuilt per request and the sampler keeps no per-σ state.

// term is one flattened ladder leaf: coefficient × base member.
type term struct {
	Base  int   // base-set index
	Coeff int64 // positive integer coefficient (product of path a's)
}

type plan struct {
	Sigma  float64 // target σ
	SigmaP float64 // proposal width ≥ σ
	Terms  []term  // draw list of one trial, fixed order (the menu's; read only)

	invTwoSigmaSq  float64 // 1/(2σ²)
	invTwoSigmaPSq float64 // 1/(2σ_p²)
}

func (p *plan) String() string {
	parts := make([]string, len(p.Terms))
	for i, t := range p.Terms {
		parts[i] = fmt.Sprintf("%d·b%d", t.Coeff, t.Base)
	}
	return fmt.Sprintf("σ=%g ← %s (σ_p=%g)", p.Sigma, strings.Join(parts, " + "), p.SigmaP)
}

// recipe is one menu entry: a ladder tree with its achieved width.
// Leaves hold a base index; internal nodes combine a·left + right.
type recipe struct {
	width float64
	draws int
	a     int64
	left  *recipe // nil at leaves
	right *recipe
	base  int // leaf base index
}

// flatten emits the recipe's terms, multiplying coefficients down the
// coarse edges.
func (rc *recipe) flatten(mult int64, out []term) []term {
	if rc.left == nil {
		return append(out, term{Base: rc.base, Coeff: mult})
	}
	out = rc.left.flatten(mult*rc.a, out)
	return rc.right.flatten(mult, out)
}

// Menu construction bounds: recipes are bucketed geometrically (2%
// buckets, so overshoot from menu granularity is ≤ ~2% plus structural
// gaps), coefficients per node and draws per trial are capped, and a
// few breadth rounds suffice because widths grow by up to maxNodeCoeff
// per round.
const (
	menuBucketRatio = 1.02
	menuMaxDraws    = 48
	maxNodeCoeff    = 16
	menuRounds      = 4
)

// buildMenu enumerates admissible ladder recipes over the base widths up
// to ~1.5× maxSigma and keeps, per 2% width bucket, the cheapest (then
// narrowest) recipe, sorted by width.  terms[i] is menu[i] flattened.
// The enumeration allocates millions of recipes, so the terms are kept
// beside the menu rather than in a recipe field.
func buildMenu(baseSigmas []float64, maxSigma float64) (menu []*recipe, terms [][]term) {
	limit := maxSigma * 1.5
	logRatio := math.Log(menuBucketRatio)
	bucketOf := func(w float64) int { return int(math.Log(w) / logRatio) }
	best := make(map[int]*recipe)
	consider := func(rc *recipe) {
		b := bucketOf(rc.width)
		cur, ok := best[b]
		if !ok || rc.draws < cur.draws || (rc.draws == cur.draws && rc.width < cur.width) {
			best[b] = rc
		}
	}
	for bi, bs := range baseSigmas {
		consider(&recipe{width: bs, draws: 1, base: bi})
	}
	// Map iteration order is randomized; expansion must visit recipes in
	// a fixed order so tie-breaks — and therefore the selected trees and
	// their draw order — are identical in every process.
	snapshot := func() []*recipe {
		buckets := make([]int, 0, len(best))
		for b := range best {
			buckets = append(buckets, b)
		}
		sort.Ints(buckets)
		cur := make([]*recipe, 0, len(buckets))
		for _, b := range buckets {
			cur = append(cur, best[b])
		}
		return cur
	}
	for round := 0; round < menuRounds; round++ {
		cur := snapshot()
		for _, l := range cur {
			for _, r := range cur {
				amax := int64(r.width) // smoothing condition: a ≤ w_R
				if amax > maxNodeCoeff {
					amax = maxNodeCoeff
				}
				draws := l.draws + r.draws
				if draws > menuMaxDraws {
					continue
				}
				for a := int64(1); a <= amax; a++ {
					w := math.Sqrt(float64(a*a)*l.width*l.width + r.width*r.width)
					if w > limit {
						break
					}
					consider(&recipe{width: w, draws: draws, a: a, left: l, right: r})
				}
			}
		}
	}
	menu = snapshot()
	terms = make([][]term, len(menu))
	for i, rc := range menu {
		terms[i] = rc.flatten(1, nil)
	}
	return menu, terms
}

// planOf selects the narrowest dominating recipe for sigma.  The menu
// always contains the base leaves, the smallest leaf dominates every σ
// below it, and New clamps MaxSigma to the widest recipe, so a
// dominating recipe exists for every admissible σ.  It runs once per
// request and allocates nothing: the terms are the menu's own.
func (s *Sampler) planOf(sigma float64) plan {
	i := sort.Search(len(s.menu), func(i int) bool { return s.menu[i].width >= sigma })
	if i == len(s.menu) {
		// Unreachable for admissible σ (see the MaxSigma clamp in New);
		// serving a narrower proposal would emit the wrong distribution,
		// so fail loudly rather than fall back.
		panic(fmt.Sprintf("convolve: no recipe dominates σ=%g (menu tops out at %g)", sigma, s.menu[len(s.menu)-1].width))
	}
	rc := s.menu[i]
	return plan{
		Sigma:          sigma,
		SigmaP:         rc.width,
		Terms:          s.terms[i],
		invTwoSigmaSq:  1 / (2 * sigma * sigma),
		invTwoSigmaPSq: 1 / (2 * rc.width * rc.width),
	}
}

// Tail bound used by ctExpThreshold's exact-conversion argument: the
// rejection exponent is t = (z−r)²/(2σ²) − v²/(2σ_p²) ≤ (v+2)²/(2σ²)
// with v ≤ 13·Σcᵢσᵢ ≤ 13·√(draws)·σ_p (base samplers are τ=13
// tail-cut, Cauchy–Schwarz over ≤ menuMaxDraws terms) and σ_p bounded
// by a small multiple of σ over the admissible range, so t < ~10⁵ —
// far inside the exact float64→uint64 conversion range (< 2⁵²), with
// any over-wide 2^−q shift collapsing to the correct 0 by Go's shift
// semantics.
