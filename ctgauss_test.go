package ctgauss_test

import (
	"math"
	"strings"
	"testing"

	"ctgauss"
)

func TestPublicQuickstart(t *testing.T) {
	s, err := ctgauss.New("2")
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Delta != 5 || st.Support != 26 || st.ValueBits != 5 {
		t.Fatalf("stats: %+v", st)
	}
	if !strings.Contains(st.String(), "σ=2") {
		t.Fatal("Stats.String malformed")
	}
	batch := make([]int, 64)
	s.NextBatch(batch)
	nonzero := 0
	for _, v := range batch {
		if v != 0 {
			nonzero++
		}
		if v < -26 || v > 26 {
			t.Fatalf("sample %d out of support", v)
		}
	}
	if nonzero == 0 {
		t.Fatal("all-zero batch")
	}
}

func TestPublicConfigOptions(t *testing.T) {
	for _, prng := range []string{"chacha20", "shake256", "aes-ctr"} {
		s, err := ctgauss.NewWithConfig(ctgauss.Config{
			Sigma: "1", Precision: 48, TailCut: 10, PRNG: prng, Seed: []byte("s"),
		})
		if err != nil {
			t.Fatalf("%s: %v", prng, err)
		}
		var sq float64
		const n = 1 << 16
		for i := 0; i < n; i++ {
			v := float64(s.Next())
			sq += v * v
		}
		if v := sq / n; math.Abs(v-1) > 0.1 {
			t.Errorf("%s: variance %f, want ≈ 1", prng, v)
		}
	}
	if _, err := ctgauss.NewWithConfig(ctgauss.Config{Sigma: "nope"}); err == nil {
		t.Fatal("expected error")
	}
	if _, err := ctgauss.NewWithConfig(ctgauss.Config{Sigma: "2", Precision: 32, PRNG: "bad"}); err == nil {
		t.Fatal("expected error for bad PRNG")
	}
}

func TestPublicDeterministicSeeding(t *testing.T) {
	mk := func() *ctgauss.Sampler {
		s, err := ctgauss.NewWithConfig(ctgauss.Config{Sigma: "2", Precision: 64, Seed: []byte("same")})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := mk(), mk()
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestPublicProbSymmetric(t *testing.T) {
	s, err := ctgauss.New("2")
	if err != nil {
		t.Fatal(err)
	}
	if s.Prob(3) != s.Prob(-3) {
		t.Fatal("Prob not symmetric")
	}
	if p := s.Prob(0); math.Abs(p-0.19947) > 0.001 {
		t.Fatalf("P(0) = %f", p)
	}
	if s.Prob(1000) != 0 {
		t.Fatal("out-of-support prob not 0")
	}
}

func TestPublicGenerateGo(t *testing.T) {
	s, err := ctgauss.NewWithConfig(ctgauss.Config{Sigma: "1", Precision: 24})
	if err != nil {
		t.Fatal(err)
	}
	src := s.GenerateGo("gen", "Sample64")
	for _, want := range []string{"package gen", "func Sample64("} {
		if !strings.Contains(src, want) {
			t.Fatalf("missing %q in generated code", want)
		}
	}
}

func TestPublicBitsUsedConstant(t *testing.T) {
	s, err := ctgauss.NewWithConfig(ctgauss.Config{Sigma: "2", Precision: 64})
	if err != nil {
		t.Fatal(err)
	}
	// The sampler evaluates Stats().BatchesPerRefill batches per refill,
	// so randomness is drawn once per refill cycle; consumption must be
	// constant across cycles (and independent of the sampled values).
	batch := make([]int, 64)
	width := s.Stats().BatchesPerRefill
	cycle := func() uint64 {
		before := s.BitsUsed()
		for j := 0; j < width; j++ {
			s.NextBatch(batch)
		}
		return s.BitsUsed() - before
	}
	per := cycle()
	if per == 0 {
		t.Fatal("no randomness consumed")
	}
	for i := 0; i < 50; i++ {
		if c := cycle(); c != per {
			t.Fatalf("randomness per refill cycle not constant: %d vs %d", c, per)
		}
	}
}
