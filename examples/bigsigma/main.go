// bigsigma shows the large-σ route the paper cites ([25,28]): instead of
// generating a σ=215-class sampler directly (Δ=15, big circuits), serve
// it from the small compiled base set through ctgauss.Arbitrary.  The
// target is σ = 6.15543·√(1+35²) ≈ 215.53, the σ=215 instance from the
// paper's Δ discussion.
//
// The flat combine z = z₁ + 35·z₂ over the σ=6.15543 sampler has that
// variance but not that shape: with k > σ_base its output is a comb of
// width-6 bumps on the 35ℤ grid, at statistical distance 0.35 from the
// target.  Arbitrary instead draws a Micciancio–Walter ladder whose
// coarse coefficients never exceed their fine sibling's width, then
// reshapes the dominating proposal to exactly D_σ by rejection.
package main

import (
	"fmt"
	"math"
	"strings"

	"ctgauss"
)

func main() {
	arb, err := ctgauss.NewArbitrary(ctgauss.ArbitraryConfig{Shards: 1})
	if err != nil {
		panic(err)
	}
	defer arb.Close()

	sigma := 6.15543 * math.Sqrt(1+35*35)
	plan, err := arb.Plan(sigma)
	if err != nil {
		panic(err)
	}
	terms := make([]string, len(plan.Terms))
	for i, t := range plan.Terms {
		terms[i] = fmt.Sprintf("%d·D(%g)", t.Coeff, t.BaseSigma)
	}
	fmt.Printf("target σ = %.2f\n", sigma)
	fmt.Printf("plan: %s  →  σ_p = %.2f, %d base draws per trial\n\n", strings.Join(terms, " + "), plan.SigmaP, plan.Draws())

	const total = 1 << 20
	var sum, sq float64
	counts := map[int]int{}
	batch := make([]int, 4096)
	for n := 0; n < total; n += len(batch) {
		if err := arb.NextBatch(sigma, 0, batch); err != nil {
			panic(err)
		}
		for _, z := range batch {
			sum += float64(z)
			sq += float64(z) * float64(z)
			counts[int(math.Floor(float64(z)/20))]++ // 20-wide bins
		}
	}
	mean := sum / total
	std := math.Sqrt(sq/total - mean*mean)
	st := arb.Stats()
	fmt.Printf("%d samples: mean %.3f (want ≈ 0), σ %.2f (want ≈ %.2f), acceptance %.3f\n\n",
		total, mean, std, sigma, st.AcceptRate())

	fmt.Println("coarse histogram (bins of 20):")
	peak := 0
	for _, c := range counts {
		peak = max(peak, c)
	}
	for b := -30; b <= 30; b += 2 {
		fmt.Printf("%6d %s\n", b*20, strings.Repeat("▆", counts[b]*50/peak))
	}
}
