package sampler

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"ctgauss/internal/bitslice"
	"ctgauss/internal/gaussian"
	"ctgauss/internal/prng"
)

func tbl(t *testing.T, sigma string, n int) *gaussian.Table {
	t.Helper()
	p, err := gaussian.NewParams(sigma, n, 13)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := gaussian.NewTable(p)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func checkDistribution(t *testing.T, s Sampler, table *gaussian.Table, samples int) {
	t.Helper()
	counts := make(map[int]int)
	var sum, sq float64
	for i := 0; i < samples; i++ {
		v := s.Next()
		counts[v]++
		sum += float64(v)
		sq += float64(v) * float64(v)
	}
	sigma, _ := table.Params.Sigma.Float64()
	mean := sum / float64(samples)
	variance := sq/float64(samples) - mean*mean
	if math.Abs(mean) > 5*sigma/math.Sqrt(float64(samples)) {
		t.Errorf("%s: mean %.4f too far from 0", s.Name(), mean)
	}
	if math.Abs(variance-sigma*sigma) > 0.1*sigma*sigma {
		t.Errorf("%s: variance %.4f, want ≈ %.4f", s.Name(), variance, sigma*sigma)
	}
	for z := -3; z <= 3; z++ {
		want := table.SignedProb(z)
		got := float64(counts[z]) / float64(samples)
		tol := 5*math.Sqrt(want/float64(samples)) + 0.003
		if math.Abs(got-want) > tol {
			t.Errorf("%s: P(%d) = %.5f, want %.5f", s.Name(), z, got, want)
		}
	}
}

func TestKnuthYaoDistribution(t *testing.T) {
	table := tbl(t, "2", 64)
	s := NewKnuthYao(table, prng.MustChaCha20([]byte("ky")))
	checkDistribution(t, s, table, 100000)
	if s.BitsUsed() == 0 {
		t.Fatal("BitsUsed not counted")
	}
}

func TestCDTDistribution(t *testing.T) {
	table := tbl(t, "2", 128)
	checkDistribution(t, NewCDT(table, prng.MustChaCha20([]byte("cdt"))), table, 100000)
}

func TestByteScanCDTDistribution(t *testing.T) {
	table := tbl(t, "2", 128)
	checkDistribution(t, NewByteScanCDT(table, prng.MustChaCha20([]byte("bs"))), table, 100000)
}

func TestLinearCDTDistribution(t *testing.T) {
	table := tbl(t, "2", 128)
	checkDistribution(t, NewLinearCDT(table, prng.MustChaCha20([]byte("lin"))), table, 100000)
}

func TestCDTVariantsAgreeOnSameStream(t *testing.T) {
	// All three CDT samplers consume 128 random bits + 1 sign bit per
	// sample; on identical streams they must produce identical samples.
	table := tbl(t, "2", 128)
	a := NewCDT(table, prng.MustChaCha20([]byte("agree")))
	b := NewByteScanCDT(table, prng.MustChaCha20([]byte("agree")))
	c := NewLinearCDT(table, prng.MustChaCha20([]byte("agree")))
	for i := 0; i < 20000; i++ {
		va, vb, vc := a.Next(), b.Next(), c.Next()
		if va != vb || va != vc {
			t.Fatalf("sample %d: binary=%d bytescan=%d linear=%d", i, va, vb, vc)
		}
	}
}

func TestLinearCDTConstantSteps(t *testing.T) {
	table := tbl(t, "2", 128)
	s := NewLinearCDT(table, prng.MustChaCha20([]byte("steps")))
	s.Next()
	per := s.Steps
	for i := 0; i < 1000; i++ {
		before := s.Steps
		s.Next()
		if s.Steps-before != per {
			t.Fatalf("linear CDT step count varies: %d vs %d", s.Steps-before, per)
		}
	}
	if per != uint64(table.Support+1) {
		t.Fatalf("steps per sample = %d, want table size %d", per, table.Support+1)
	}
}

func TestByteScanStepsCorrelateWithSample(t *testing.T) {
	// The byte-scanning sampler's work grows with the sample magnitude —
	// the timing leak the paper's sampler removes.
	table := tbl(t, "2", 128)
	s := NewByteScanCDT(table, prng.MustChaCha20([]byte("leak"))) //nolint
	stepsByMag := make(map[int][]uint64)
	for i := 0; i < 50000; i++ {
		before := s.Steps
		v := s.Next()
		if v < 0 {
			v = -v
		}
		stepsByMag[v] = append(stepsByMag[v], s.Steps-before)
	}
	avg := func(xs []uint64) float64 {
		var t uint64
		for _, x := range xs {
			t += x
		}
		return float64(t) / float64(len(xs))
	}
	if len(stepsByMag[0]) == 0 || len(stepsByMag[3]) == 0 {
		t.Skip("not enough samples")
	}
	if avg(stepsByMag[3]) <= avg(stepsByMag[0]) {
		t.Fatalf("expected larger magnitudes to take more scan work: mag0=%.2f mag3=%.2f",
			avg(stepsByMag[0]), avg(stepsByMag[3]))
	}
}

func TestApplySign(t *testing.T) {
	if applySign(5, 0) != 5 || applySign(5, 1) != -5 || applySign(0, 1) != 0 {
		t.Fatalf("applySign broken: %d %d %d", applySign(5, 0), applySign(5, 1), applySign(0, 1))
	}
}

func TestBranchFreeComparators(t *testing.T) {
	cases := []struct{ a, b uint64 }{
		{0, 0}, {1, 0}, {0, 1}, {^uint64(0), 0}, {0, ^uint64(0)},
		{1 << 63, 1}, {1, 1 << 63}, {^uint64(0), ^uint64(0)},
		{12345, 12345}, {1 << 63, 1 << 63}, {(1 << 63) - 1, 1 << 63},
	}
	for _, c := range cases {
		wantLess := uint64(0)
		if c.a < c.b {
			wantLess = 1
		}
		wantEq := uint64(0)
		if c.a == c.b {
			wantEq = 1
		}
		if isLess(c.a, c.b) != wantLess {
			t.Errorf("isLess(%d,%d) = %d, want %d", c.a, c.b, isLess(c.a, c.b), wantLess)
		}
		if isEqual(c.a, c.b) != wantEq {
			t.Errorf("isEqual(%d,%d) = %d, want %d", c.a, c.b, isEqual(c.a, c.b), wantEq)
		}
		if isGreater(c.a, c.b) != isLess(c.b, c.a) {
			t.Errorf("isGreater inconsistent at (%d,%d)", c.a, c.b)
		}
	}
}

func TestKnuthYaoBitsPerSampleSmall(t *testing.T) {
	// Knuth-Yao needs ≈ entropy + 2 bits on average — the reason the paper
	// contrasts its 128-bit constant-time cost against this.
	table := tbl(t, "2", 64)
	s := NewKnuthYao(table, prng.MustChaCha20([]byte("bits")))
	const n = 50000
	for i := 0; i < n; i++ {
		s.Next()
	}
	avg := float64(s.BitsUsed()) / n
	if avg < 3 || avg > 9 {
		t.Fatalf("avg bits/sample = %.2f", avg)
	}
}

// randTestProgram builds a random straight-line circuit for stream tests.
func randTestProgram(seed int64) *bitslice.Program {
	rng := rand.New(rand.NewSource(seed))
	numInputs := 6 + rng.Intn(6)
	p := &bitslice.Program{NumInputs: numInputs, NumRegs: numInputs, SignInput: -1}
	ops := []bitslice.Op{bitslice.OpAnd, bitslice.OpOr, bitslice.OpXor, bitslice.OpNot, bitslice.OpAndNot}
	for i := 0; i < 120; i++ {
		dst := p.NumRegs
		p.NumRegs++
		p.Code = append(p.Code, bitslice.Instr{
			Op: ops[rng.Intn(len(ops))], A: rng.Intn(dst), B: rng.Intn(dst), Dst: dst,
		})
	}
	p.ValueBits = 4
	p.MaxSupport = 15
	for i := 0; i < p.ValueBits; i++ {
		p.Outputs = append(p.Outputs, rng.Intn(p.NumRegs))
	}
	return p
}

// TestBitslicedMatchesReferenceInterpreter pins the optimized fast path
// (register allocation, fused dispatch, bulk word reads, transpose
// unpacking) to the pre-optimization reference: at width 1 the sampler
// consumes the stream in the historical order, so the same seed must
// yield a bit-identical sample stream and bit accounting.
func TestBitslicedMatchesReferenceInterpreter(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		prog := randTestProgram(seed)
		if err := prog.Validate(); err != nil {
			t.Fatal(err)
		}
		s := NewBitslicedWidth("opt", bitslice.Optimize(prog), prng.MustChaCha20([]byte("ref-stream")), 1)
		// The canonical baseline sampler must match the same stream (it is
		// the fixed point benchmarks compare against; this guards it
		// against drift).
		canon := NewReference(prog, prng.MustChaCha20([]byte("ref-stream")))

		// Reference: the historical refill, word by word, per-bit unpack,
		// written out independently of any shared helper.
		rd := prng.NewBitReader(prng.MustChaCha20([]byte("ref-stream")))
		in := make([]uint64, prog.NumInputs)
		regs := make([]uint64, prog.NumRegs)
		out := make([]uint64, len(prog.Outputs))
		for batch := 0; batch < 10; batch++ {
			for i := range in {
				in[i] = rd.Uint64()
			}
			sign := rd.Uint64()
			prog.RunInto(in, regs, out)
			for l := 0; l < 64; l++ {
				mag := 0
				for i, w := range out {
					mag |= int((w>>uint(l))&1) << uint(i)
				}
				want := applySign(mag, (sign>>uint(l))&1)
				if got := s.Next(); got != want {
					t.Fatalf("seed %d batch %d lane %d: optimized %d, reference %d", seed, batch, l, got, want)
				}
				if got := canon.Next(); got != want {
					t.Fatalf("seed %d batch %d lane %d: Reference sampler %d, inline reference %d", seed, batch, l, got, want)
				}
			}
			if s.BitsUsed() != rd.BitsRead {
				t.Fatalf("seed %d batch %d: BitsUsed %d, reference %d", seed, batch, s.BitsUsed(), rd.BitsRead)
			}
		}
		if s.Batches != 10 {
			t.Fatalf("Batches = %d, want 10", s.Batches)
		}
	}
}

// TestWidthsAgreeOnDistribution: both widths draw from the same
// distribution — same multiset statistics over a long run (the width
// changes the stream layout, never the per-sample law).
func TestWidthsAgreeOnDistribution(t *testing.T) {
	prog := randTestProgram(99)
	opt := bitslice.Optimize(prog)
	const n = 64 * 256
	counts := make(map[int]map[int]float64)
	for _, w := range []int{1, bitslice.Width} {
		s := NewBitslicedWidth("w", opt, prng.MustChaCha20([]byte("dist")), w)
		c := make(map[int]float64)
		for i := 0; i < n; i++ {
			c[s.Next()]++
		}
		counts[w] = c
	}
	for v, f1 := range counts[1] {
		fw := counts[bitslice.Width][v]
		if diff := (f1 - fw) / n; diff > 0.05 || diff < -0.05 {
			t.Errorf("w=%d: P(%d) deviates: %v vs %v", bitslice.Width, v, f1/n, fw/n)
		}
	}
}

// TestWideBatchAccounting checks the W-batch refill: bits drawn per
// evaluation and the Batches counter both scale with W.
func TestWideBatchAccounting(t *testing.T) {
	prog := randTestProgram(7)
	opt := bitslice.Optimize(prog)
	for _, w := range []int{1, bitslice.Width} {
		s := NewBitslicedWidth("w", opt, prng.MustChaCha20([]byte("acct")), w)
		s.Next()
		wantBits := uint64(opt.NumInputs*w+w) * 64
		if s.BitsUsed() != wantBits {
			t.Fatalf("w=%d: BitsUsed %d after one refill, want %d", w, s.BitsUsed(), wantBits)
		}
		if s.Batches != uint64(w) {
			t.Fatalf("w=%d: Batches %d, want %d", w, s.Batches, w)
		}
		dst := make([]int, 64)
		for i := 0; i < w-1; i++ {
			s.NextBatch(dst)
		}
		// Still inside the first wide refill: no new bits drawn.
		if s.BitsUsed() != wantBits {
			t.Fatalf("w=%d: drew bits before the buffer drained", w)
		}
	}
}

// TestUnsupportedWidthPanics pins the one-width contract: a sampler is
// built at width 1 or bitslice.Width, and any other width fails at
// construction rather than on the first refill.
func TestUnsupportedWidthPanics(t *testing.T) {
	opt := bitslice.Optimize(randTestProgram(3))
	for _, w := range []int{0, 2, 8, 32} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "width 1 or 16") {
					t.Errorf("w=%d: panic %q, want one naming widths 1 and 16", w, msg)
				}
			}()
			NewBitslicedWidth("w", opt, prng.MustChaCha20([]byte("bad")), w)
		}()
	}
}

// TestCompiledCountsBatches pins the Batches instrumentation of the
// width-1 generated form: one batch per refill.
func TestCompiledCountsBatches(t *testing.T) {
	fn := func(in, out []uint64) { out[0] = in[0] }
	s := NewCompiled("t", fn, 1, 1, prng.MustChaCha20([]byte("count")))
	dst := make([]int, 64)
	for i := 0; i < 3; i++ {
		s.NextBatch(dst)
	}
	if s.Batches != 3 {
		t.Fatalf("Batches = %d, want 3", s.Batches)
	}
	s.Next() // served from buffer? no: buffer drained exactly — refills
	if s.Batches != 4 {
		t.Fatalf("Batches = %d, want 4", s.Batches)
	}
}

// TestNextBatchDrainsBuffered pins the no-discard contract: interleaving
// Next and NextBatch yields the same stream as Next alone — NextBatch
// serves buffered samples before spending a fresh circuit evaluation.
func TestNextBatchDrainsBuffered(t *testing.T) {
	// Identity circuit: one input word, the magnitude bit is the input.
	prog := &bitslice.Program{
		NumInputs: 1, NumRegs: 1, Outputs: []int{0},
		SignInput: -1, ValueBits: 1, MaxSupport: 1,
	}
	if err := prog.Validate(); err != nil {
		t.Fatal(err)
	}
	fn := func(in, out []uint64) { out[0] = in[0] }

	for _, mk := range []struct {
		name string
		make func() BatchSampler
	}{
		{"bitsliced", func() BatchSampler {
			return NewBitslicedWidth("t", bitslice.Optimize(prog), prng.MustChaCha20([]byte("drain")), bitslice.Width)
		}},
		{"compiled", func() BatchSampler {
			return NewCompiled("t", fn, 1, 1, prng.MustChaCha20([]byte("drain")))
		}},
		{"bitsliced-w1", func() BatchSampler {
			return NewBitslicedWidth("t", bitslice.Optimize(prog), prng.MustChaCha20([]byte("drain")), 1)
		}},
	} {
		t.Run(mk.name, func(t *testing.T) {
			mixed, pure := mk.make(), mk.make()
			var got, want []int
			for i := 0; i < 10; i++ {
				got = append(got, mixed.Next())
			}
			batch := make([]int, 64)
			mixed.NextBatch(batch)
			got = append(got, batch...)
			for i := 0; i < 10; i++ {
				got = append(got, mixed.Next())
			}
			for range got {
				want = append(want, pure.Next())
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("sample %d: mixed %d, pure %d", i, got[i], want[i])
				}
			}
		})
	}
}
