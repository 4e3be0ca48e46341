package ctgauss_test

import (
	"fmt"

	"ctgauss"
)

// The default configuration reproduces the paper's Falcon setting
// (n = 128, τ = 13) and a fixed test seed, so this output is
// deterministic.  Pass Config.Seed for production randomness.
func ExampleNew() {
	s, err := ctgauss.New("2")
	if err != nil {
		panic(err)
	}
	fmt.Println(s.Stats())
	fmt.Println("first samples:", s.Next(), s.Next(), s.Next(), s.Next())
	// Output:
	// σ=2 n=128: Δ=5, 1139 leaves in 125 sublists, 3588 word ops, 8384 bits/batch
	// first samples: -2 1 -2 1
}

func ExampleSampler_NextBatch() {
	s, err := ctgauss.NewWithConfig(ctgauss.Config{Sigma: "2", Precision: 48})
	if err != nil {
		panic(err)
	}
	// 64 samples per call — the native bitsliced granularity: one
	// evaluation of the constant-time circuit fills all 64 lanes.
	batch := make([]int, 64)
	s.NextBatch(batch)
	fmt.Println(batch[:8])
	// Output:
	// [-2 -1 -2 1 1 -3 1 1]
}

func ExampleNewPool() {
	// A Pool serves one compiled circuit to any number of goroutines;
	// shards hold independent PRNG streams derived from one seed.
	// Pinning the PRNG (the serving default depends on AES-NI) makes the
	// stream a function of the seed alone, on every host and backend.
	pool, err := ctgauss.NewPoolWithConfig(ctgauss.Config{
		Sigma:     "2",
		Precision: 48,
		Seed:      []byte("example"),
		PRNG:      "chacha20",
	}, 4)
	if err != nil {
		panic(err)
	}
	batch := make([]int, 64)
	pool.NextBatch(batch) // safe to call from concurrent goroutines
	fmt.Println(pool.Size(), batch[:8])
	// Output:
	// 4 [-1 -1 -1 0 0 2 -1 3]
}

func ExampleNewArbitrary() {
	// An Arbitrary sampler serves ANY admissible (σ, μ) from one
	// compiled base set — here just σ=2 — via convolution plus
	// constant-time randomized rounding.  No per-σ build happens at
	// request time, and every batch length is served exactly.
	arb, err := ctgauss.NewArbitrary(ctgauss.ArbitraryConfig{
		BaseSigmas: []string{"2"},
		Shards:     1,
		Seed:       []byte("example"),
	})
	if err != nil {
		panic(err)
	}
	samples := make([]int, 5)
	if err := arb.NextBatch(17.5, 0.375, samples); err != nil {
		panic(err)
	}
	plan, _ := arb.Plan(17.5)
	fmt.Println(len(samples), plan.Draws() > 1, plan.SigmaP >= 17.5)
	// Output:
	// 5 true true
}
