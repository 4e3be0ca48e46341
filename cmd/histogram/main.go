// Command histogram regenerates Fig. 5: histograms of the constant-time
// sampler output for σ = 2 and σ = 6.15543 (64×10⁷ samples in the paper;
// configurable here), rendered as ASCII alongside the ideal distribution,
// with the empirical statistical distance.
//
// Usage:
//
//	histogram -sigma 2 -samples 6400000
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"ctgauss/internal/bitslice"
	"ctgauss/internal/core"
	"ctgauss/internal/prng"
)

func main() {
	sigma := flag.String("sigma", "2", "standard deviation")
	samples := flag.Int("samples", 64*100000, "number of samples (paper: 64e7)")
	width := flag.Int("width", 60, "bar width in characters")
	flag.Parse()

	b, err := core.Build(core.Config{Sigma: *sigma, N: 128, TailCut: 13, Min: core.MinimizeExact})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// The width is a constant, so the figure draws the same stream on
	// every host.
	s := b.NewWideSampler(prng.MustChaCha20([]byte("histogram")), bitslice.Width)

	counts := make(map[int]int)
	dst := make([]int, 64)
	batches := *samples / 64
	for i := 0; i < batches; i++ {
		s.NextBatch(dst)
		for _, v := range dst {
			counts[v]++
		}
	}
	total := float64(batches * 64)

	sf := 0.0
	fmt.Sscanf(*sigma, "%f", &sf)
	lo, hi := int(-4*sf), int(4*sf)
	peak := 0.0
	for v := lo; v <= hi; v++ {
		if f := float64(counts[v]) / total; f > peak {
			peak = f
		}
	}

	fmt.Printf("Fig. 5 — histogram, σ=%s, %d samples (paper: 64×10⁷)\n\n", *sigma, batches*64)
	var dist float64
	for v := lo; v <= hi; v++ {
		emp := float64(counts[v]) / total
		ideal := b.Table.SignedProb(v)
		dist += math.Abs(emp - ideal)
		bar := strings.Repeat("█", int(emp/peak*float64(*width)))
		fmt.Printf("%5d %8.5f |%s\n", v, emp, bar)
	}
	// Include values outside the printed window in the distance.
	for v, c := range counts {
		if v < lo || v > hi {
			dist += math.Abs(float64(c)/total - b.Table.SignedProb(v))
		}
	}
	fmt.Printf("\nempirical statistical distance to the n=128 table: %.3e", dist/2)
	fmt.Printf(" (sampling noise ≈ %.1e)\n", math.Sqrt(float64(len(counts)))/math.Sqrt(total))
}
