package bitslice

import (
	"math/rand"
	"strings"
	"testing"
)

// randProgram generates a random valid SSA program: every instruction
// reads earlier registers, outputs point anywhere.  It deliberately mixes
// in constants, duplicate operands, dead code, and outputs aliased to
// inputs to exercise every optimizer path.
func randProgram(rng *rand.Rand) *Program {
	numInputs := 1 + rng.Intn(12)
	numInstr := rng.Intn(200)
	p := &Program{NumInputs: numInputs, NumRegs: numInputs, SignInput: -1}
	ops := []Op{OpAnd, OpOr, OpXor, OpNot, OpAndNot, OpZero, OpOnes}
	for i := 0; i < numInstr; i++ {
		op := ops[rng.Intn(len(ops))]
		a := rng.Intn(p.NumRegs)
		b := rng.Intn(p.NumRegs)
		if rng.Intn(4) == 0 {
			b = a // duplicate operands hit the x op x folds
		}
		dst := p.NumRegs
		p.NumRegs++
		p.Code = append(p.Code, Instr{Op: op, A: a, B: b, Dst: dst})
	}
	valueBits := 1 + rng.Intn(8)
	if valueBits > p.NumRegs {
		valueBits = p.NumRegs
	}
	p.ValueBits = valueBits
	p.MaxSupport = 1<<valueBits - 1
	for i := 0; i < valueBits; i++ {
		p.Outputs = append(p.Outputs, rng.Intn(p.NumRegs))
	}
	return p
}

func randInputs(rng *rand.Rand, n int) []uint64 {
	in := make([]uint64, n)
	for i := range in {
		in[i] = rng.Uint64()
	}
	return in
}

// TestOptimizeEquivalence is the tentpole property test: on random
// circuits, the optimized form — at widths 1, 4 and 8 — and the
// transpose-based unpacking produce bit-identical results to the
// reference interpreter and the per-lane Unpack.
func TestOptimizeEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		p := randProgram(rng)
		if err := p.Validate(); err != nil {
			t.Fatalf("trial %d: generated invalid program: %v", trial, err)
		}
		o := Optimize(p)
		if o.NumSlots > p.NumRegs {
			t.Fatalf("trial %d: %d slots exceed %d SSA registers", trial, o.NumSlots, p.NumRegs)
		}
		if o.OpCount() > p.OpCount() {
			t.Fatalf("trial %d: optimization grew the program: %d > %d", trial, o.OpCount(), p.OpCount())
		}

		for _, w := range []int{1, Width} {
			// Per-block inputs, each checked against an independent
			// reference run.
			wideIn := make([]uint64, p.NumInputs*w)
			refIn := make([][]uint64, w)
			for blk := 0; blk < w; blk++ {
				refIn[blk] = randInputs(rng, p.NumInputs)
				for i := 0; i < p.NumInputs; i++ {
					wideIn[i*w+blk] = refIn[blk][i]
				}
			}
			wideOut := make([]uint64, len(p.Outputs)*w)
			o.RunWideInto(w, wideIn, o.NewSlots(w), wideOut)
			for blk := 0; blk < w; blk++ {
				want := p.Run(refIn[blk], nil)
				for i := range want {
					if got := wideOut[i*w+blk]; got != want[i] {
						t.Fatalf("trial %d w=%d blk=%d: output %d = %#x, want %#x",
							trial, w, blk, i, got, want[i])
					}
				}
				// Transpose unpack agrees with the per-lane reference.
				blkOut := make([]uint64, len(p.Outputs))
				for i := range blkOut {
					blkOut[i] = wideOut[i*w+blk]
				}
				var dst [64]int
				UnpackAll(blkOut, dst[:])
				for l := 0; l < 64; l++ {
					if ref := Unpack(want, l); dst[l] != ref {
						t.Fatalf("trial %d w=%d blk=%d lane %d: UnpackAll %d, want %d",
							trial, w, blk, l, dst[l], ref)
					}
				}
			}
		}
	}
}

// TestRunWideRejectsOtherWidths pins the one-width contract: RunWideInto
// serves width 1 and Width, and any other width panics with a message
// naming both instead of falling back to a slower body.
func TestRunWideRejectsOtherWidths(t *testing.T) {
	o := Optimize(benchProgram())
	for _, w := range []int{0, 2, 3, 4, 8, 32} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "width 1 or 16") {
					t.Errorf("w=%d: panic %q, want one naming widths 1 and 16", w, msg)
				}
			}()
			o.RunWideInto(w, make([]uint64, o.NumInputs*w), o.NewSlots(w), make([]uint64, len(o.Outputs)*w))
		}()
	}
}

// TestOptimizeIdentityOutputs covers outputs that alias inputs with no
// code at all (the drain-test circuit in the sampler package).
func TestOptimizeIdentityOutputs(t *testing.T) {
	p := &Program{NumInputs: 2, NumRegs: 2, Outputs: []int{1, 0}, SignInput: -1, ValueBits: 2, MaxSupport: 3}
	o := Optimize(p)
	in := []uint64{0xdead, 0xbeef}
	out := o.Run(in)
	if out[0] != 0xbeef || out[1] != 0xdead {
		t.Fatalf("identity outputs = %#x, %#x", out[0], out[1])
	}
}

// TestOptimizeConstantOutputs covers output bits that fold to constants.
func TestOptimizeConstantOutputs(t *testing.T) {
	b := newBuilder(1, true)
	z := b.zero()
	o1 := b.ones()
	x := b.and(0, o1) // = input 0
	p := b.p
	p.Outputs = []int{z, o1, x}
	p.ValueBits = 3
	opt := Optimize(p)
	out := opt.Run([]uint64{0xabc})
	if out[0] != 0 || out[1] != ^uint64(0) || out[2] != 0xabc {
		t.Fatalf("constant outputs = %#x, %#x, %#x", out[0], out[1], out[2])
	}
	if opt.OpCount() != 0 {
		t.Fatalf("constant circuit still has %d instructions", opt.OpCount())
	}
}

func naiveTranspose(a [64]uint64) [64]uint64 {
	var out [64]uint64
	for r := 0; r < 64; r++ {
		for c := 0; c < 64; c++ {
			out[c] |= ((a[r] >> uint(c)) & 1) << uint(r)
		}
	}
	return out
}

func TestTranspose64(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		var m [64]uint64
		for i := range m {
			m[i] = rng.Uint64()
		}
		want := naiveTranspose(m)
		got := m
		Transpose64(&got)
		if got != want {
			t.Fatalf("trial %d: transpose mismatch", trial)
		}
		// Involution: transposing twice restores the original.
		Transpose64(&got)
		if got != m {
			t.Fatalf("trial %d: transpose is not an involution", trial)
		}
	}
}

func TestFusionCoverage(t *testing.T) {
	// Build a circuit exhibiting every fused pair and check the optimizer
	// actually emits fused opcodes (the perf win depends on it).
	b := newBuilder(6, true)
	acc := b.and(0, 1)       // and
	acc = b.or(acc, 2)       // fuses and+or
	acc2 := b.andNot(acc, 3) // single use producer
	acc2 = b.and(acc2, 4)    // fuses andnot+and
	acc3 := b.and(acc2, 5)   //
	acc3 = b.andNot(acc3, 0) // fuses and+andnot
	p := b.p
	p.Outputs = []int{acc3}
	p.ValueBits = 1
	o := Optimize(p)
	fused := 0
	for _, in := range o.Code {
		if in.Op > OpOnes {
			fused++
		}
	}
	if fused == 0 {
		t.Fatalf("no fused instructions emitted; code=%v", o.Code)
	}
	// And the semantics still match the reference.
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 20; i++ {
		in := randInputs(rng, 6)
		want := p.Run(in, nil)
		got := o.Run(in)
		for j := range want {
			if want[j] != got[j] {
				t.Fatalf("fused circuit diverges: %#x vs %#x", got[j], want[j])
			}
		}
	}
}
