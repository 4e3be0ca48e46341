package core

import (
	"math"
	"math/rand"
	"testing"

	"ctgauss/internal/bitslice"
	"ctgauss/internal/ddg"
	"ctgauss/internal/prng"
)

func build(t *testing.T, sigma string, n int, min Minimizer) *Built {
	t.Helper()
	b, err := Build(Config{Sigma: sigma, N: n, TailCut: 13, Min: min})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestProgramMatchesAlgorithm1 is the keystone correctness test: on random
// packed inputs, every lane of the compiled constant-time program must
// agree with running Algorithm 1 on that lane's bit string whenever the
// walk terminates within the program's input window.
func TestProgramMatchesAlgorithm1(t *testing.T) {
	for _, cfg := range []struct {
		sigma string
		n     int
		min   Minimizer
	}{
		{"2", 24, MinimizeExact},
		{"2", 24, MinimizeGreedy},
		{"2", 24, MinimizeNone},
		{"1", 20, MinimizeExact},
		{"6.15543", 20, MinimizeExact},
	} {
		b := build(t, cfg.sigma, cfg.n, cfg.min)
		matrix := b.Table.Matrix()
		rng := rand.New(rand.NewSource(99))
		in := make([]uint64, b.Program.NumInputs)
		checked := 0
		for batch := 0; batch < 40; batch++ {
			for i := range in {
				in[i] = rng.Uint64()
			}
			out := b.Program.Run(in, nil)
			for lane := 0; lane < 64; lane++ {
				bits := make([]byte, len(in))
				for i := range in {
					bits[i] = byte(in[i] >> uint(lane) & 1)
				}
				idx := 0
				v, used, err := ddg.Scan(matrix, ddg.BitSourceFunc(func() byte {
					if idx < len(bits) {
						x := bits[idx]
						idx++
						return x
					}
					idx++
					return 0
				}))
				if err != nil || used > len(in) {
					continue // fell off or resolved beyond window: don't-care
				}
				got := bitslice.Unpack(out, lane)
				if got != v {
					t.Fatalf("σ=%s min=%s lane %d: program %d, Alg.1 %d (bits %v)",
						cfg.sigma, cfg.min, lane, got, v, bits[:used])
				}
				checked++
			}
		}
		if checked < 1000 {
			t.Fatalf("σ=%s: too few checked lanes (%d)", cfg.sigma, checked)
		}
	}
}

func TestBuildStatsPopulated(t *testing.T) {
	b := build(t, "2", 32, MinimizeExact)
	if b.LeafCount == 0 || b.SublistCount == 0 || b.TotalCubes == 0 {
		t.Fatalf("stats empty: %+v", b)
	}
	if b.Program.OpCount() == 0 {
		t.Fatal("empty program")
	}
	if b.Tree.Delta != 3 {
		t.Fatalf("Δ = %d, want 3 for σ=2 at n=32", b.Tree.Delta)
	}
}

func TestExactNeverWorseThanGreedyOrNone(t *testing.T) {
	exact := build(t, "2", 32, MinimizeExact)
	greedy := build(t, "2", 32, MinimizeGreedy)
	raw := build(t, "2", 32, MinimizeNone)
	if exact.TotalCubes > greedy.TotalCubes {
		t.Fatalf("exact %d cubes > greedy %d", exact.TotalCubes, greedy.TotalCubes)
	}
	if greedy.TotalCubes > raw.TotalCubes {
		t.Fatalf("greedy %d cubes > raw %d", greedy.TotalCubes, raw.TotalCubes)
	}
	if exact.Program.OpCount() >= raw.Program.OpCount() {
		t.Fatalf("exact program (%d ops) not smaller than raw (%d ops)",
			exact.Program.OpCount(), raw.Program.OpCount())
	}
}

func TestSamplerDistributionSigma2(t *testing.T) {
	b := build(t, "2", 48, MinimizeExact)
	s := b.NewWideSampler(prng.MustChaCha20([]byte("dist-test")), bitslice.Width)
	const samples = 1 << 18
	counts := make(map[int]int)
	for i := 0; i < samples; i++ {
		counts[s.Next()]++
	}
	// Compare against the signed distribution.
	for z := -8; z <= 8; z++ {
		want := b.Table.SignedProb(z)
		got := float64(counts[z]) / samples
		if math.Abs(got-want) > 4*math.Sqrt(want/samples)+0.002 {
			t.Errorf("z=%d: freq %.5f, want %.5f", z, got, want)
		}
	}
	// Mean ≈ 0, variance ≈ σ².
	var sum, sq float64
	for z, c := range counts {
		sum += float64(z * c)
		sq += float64(z * z * c)
	}
	mean := sum / samples
	variance := sq/samples - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Errorf("mean = %.4f", mean)
	}
	if math.Abs(variance-4) > 0.15 {
		t.Errorf("variance = %.4f, want ≈ 4", variance)
	}
}

func TestSimpleBaselineDistribution(t *testing.T) {
	bs, err := BuildSimple(Config{Sigma: "2", N: 32, TailCut: 13})
	if err != nil {
		t.Fatal(err)
	}
	s := bs.NewWideSampler(prng.MustChaCha20([]byte("simple")), bitslice.Width)
	const samples = 1 << 16
	counts := make(map[int]int)
	for i := 0; i < samples; i++ {
		counts[s.Next()]++
	}
	for z := -4; z <= 4; z++ {
		want := bs.Table.SignedProb(z)
		got := float64(counts[z]) / samples
		if math.Abs(got-want) > 0.01 {
			t.Errorf("z=%d: freq %.5f, want %.5f", z, got, want)
		}
	}
	if bs.CubesAfter > bs.CubesBefore {
		t.Fatalf("naive merge grew cube count %d -> %d", bs.CubesBefore, bs.CubesAfter)
	}
}

func TestSplitBeatsSimpleOnOpCount(t *testing.T) {
	// The headline claim, in the cost model: the split/mux program must
	// need significantly fewer word ops than the flat baseline.
	b := build(t, "2", 64, MinimizeExact)
	bs, err := BuildSimple(Config{Sigma: "2", N: 64, TailCut: 13})
	if err != nil {
		t.Fatal(err)
	}
	if b.Program.OpCount() >= bs.Program.OpCount() {
		t.Fatalf("split %d ops, simple %d ops — no improvement",
			b.Program.OpCount(), bs.Program.OpCount())
	}
}

func TestBatchAndNextAgree(t *testing.T) {
	b := build(t, "2", 32, MinimizeExact)
	s1 := b.NewWideSampler(prng.MustChaCha20([]byte("same")), bitslice.Width)
	s2 := b.NewWideSampler(prng.MustChaCha20([]byte("same")), bitslice.Width)
	batch := make([]int, 64)
	s2.NextBatch(batch)
	for i := 0; i < 64; i++ {
		if v := s1.Next(); v != batch[i] {
			t.Fatalf("sample %d: Next=%d batch=%d", i, v, batch[i])
		}
	}
}

func TestBitsPerBatchMatchesCircuitWidth(t *testing.T) {
	b := build(t, "2", 32, MinimizeExact)
	s := b.NewWideSampler(prng.MustChaCha20([]byte("bits")), bitslice.Width)
	s.Next()
	// One refill evaluates bitslice.Width batches, each costing
	// NumInputs input words plus one sign word.
	wantBits := uint64(b.Program.NumInputs+1) * 64 * uint64(s.Width())
	if s.BitsUsed() != wantBits {
		t.Fatalf("BitsUsed = %d, want %d", s.BitsUsed(), wantBits)
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(Config{Sigma: "x", N: 16, TailCut: 13}); err == nil {
		t.Fatal("expected error for bad sigma")
	}
	if _, err := Build(Config{Sigma: "2", N: 0, TailCut: 13}); err == nil {
		t.Fatal("expected error for bad precision")
	}
	if _, err := Build(Config{Sigma: "2", N: 16, TailCut: 13, Min: Minimizer(9)}); err == nil {
		t.Fatal("expected error for unknown minimizer")
	}
}

func TestMinimizerString(t *testing.T) {
	if MinimizeExact.String() != "exact" || Minimizer(9).String() != "?" {
		t.Fatal("bad minimizer names")
	}
}

func TestDefaultConfig(t *testing.T) {
	c := DefaultConfig("2")
	if c.N != 128 || c.TailCut != 13 {
		t.Fatalf("DefaultConfig = %+v", c)
	}
}

func TestFullPrecisionBuildSigma2(t *testing.T) {
	// The paper's actual Falcon configuration: σ=2, n=128, τ=13.
	b := build(t, "2", 128, MinimizeExact)
	if b.Tree.Delta != 5 {
		t.Fatalf("Δ = %d, want 5 (paper reports 4; see docs/ARCHITECTURE.md, Δ against the paper)", b.Tree.Delta)
	}
	s := b.NewWideSampler(prng.MustChaCha20([]byte("full")), bitslice.Width)
	var sq float64
	const samples = 1 << 16
	for i := 0; i < samples; i++ {
		v := s.Next()
		sq += float64(v * v)
	}
	variance := sq / samples
	if math.Abs(variance-4) > 0.2 {
		t.Fatalf("variance = %.3f, want ≈ 4", variance)
	}
}

// TestParallelMinimizationDeterministic checks the tentpole invariant of
// the parallel build: fanning the (sublist, bit) minimizations across
// workers must produce bit-identical artefacts to the serial path, for
// every minimizer and regardless of worker count.
func TestParallelMinimizationDeterministic(t *testing.T) {
	for _, min := range []Minimizer{MinimizeExact, MinimizeGreedy, MinimizeNone} {
		serial, err := Build(Config{Sigma: "2", N: 64, TailCut: 13, Min: min, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, 2, 3, 16} {
			par, err := Build(Config{Sigma: "2", N: 64, TailCut: 13, Min: min, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if len(par.Sublists) != len(serial.Sublists) {
				t.Fatalf("min=%v workers=%d: %d sublists, want %d", min, workers, len(par.Sublists), len(serial.Sublists))
			}
			for i, sf := range par.Sublists {
				want := serial.Sublists[i]
				if sf.K != want.K || len(sf.SOPs) != len(want.SOPs) {
					t.Fatalf("min=%v workers=%d: sublist %d shape mismatch", min, workers, i)
				}
				for bit, sop := range sf.SOPs {
					ws := want.SOPs[bit]
					if sop.NVars != ws.NVars || len(sop.Cubes) != len(ws.Cubes) {
						t.Fatalf("min=%v workers=%d: sublist %d bit %d SOP mismatch", min, workers, i, bit)
					}
					for ci, c := range sop.Cubes {
						if c != ws.Cubes[ci] {
							t.Fatalf("min=%v workers=%d: sublist %d bit %d cube %d differs", min, workers, i, bit, ci)
						}
					}
				}
			}
			if got, want := par.Program.OpCount(), serial.Program.OpCount(); got != want {
				t.Fatalf("min=%v workers=%d: op count %d, want %d", min, workers, got, want)
			}
			for i, in := range par.Program.Code {
				if in != serial.Program.Code[i] {
					t.Fatalf("min=%v workers=%d: instruction %d differs", min, workers, i)
				}
			}
		}
	}
}
