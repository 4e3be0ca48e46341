package bitslice_test

// External test package: exercises the optimizer on the real generated
// sigma circuits, which requires the core build pipeline (core imports
// bitslice, so this cannot live in the internal test package).

import (
	"math/rand"
	"testing"

	"ctgauss/internal/bitslice"
	"ctgauss/internal/bitslice/dispatch"
	"ctgauss/internal/core"
)

// TestOptimizeSigmaCircuits proves the optimized engine bit-identical to
// the reference interpreter on both of the paper's generated circuits, at
// both evaluation widths, including the transpose-based unpacking.  The
// whole sweep repeats once per available backend (forced portable, then
// AVX2 where detected), so bitslice.Width — the width the assembly
// kernel runs — is proven identical across every implementation this
// machine can run.
func TestOptimizeSigmaCircuits(t *testing.T) {
	backends := append([]dispatch.Backend{dispatch.Portable}, dispatch.Detected()...)
	for _, backend := range backends {
		backend := backend
		t.Run(backend.String(), func(t *testing.T) {
			restore, err := dispatch.Force(backend)
			if err != nil {
				t.Fatal(err)
			}
			defer restore()
			testOptimizeSigmaCircuits(t)
		})
	}
}

func testOptimizeSigmaCircuits(t *testing.T) {
	for _, sigma := range []string{"2", "6.15543"} {
		sigma := sigma
		t.Run("sigma"+sigma, func(t *testing.T) {
			built, err := core.Build(core.Config{Sigma: sigma, N: 128, TailCut: 13, Min: core.MinimizeExact})
			if err != nil {
				t.Fatal(err)
			}
			p := built.Program
			o := bitslice.Optimize(p)
			t.Logf("σ=%s: %d SSA regs → %d slots, %d instrs → %d (fused)",
				sigma, p.NumRegs, o.NumSlots, p.OpCount(), o.OpCount())
			if o.NumSlots >= p.NumRegs/4 {
				t.Errorf("register allocation too weak: %d slots for %d SSA regs", o.NumSlots, p.NumRegs)
			}
			if o.OpCount() >= p.OpCount() {
				t.Errorf("no instruction reduction: %d vs %d", o.OpCount(), p.OpCount())
			}

			rng := rand.New(rand.NewSource(1234))
			for _, w := range []int{1, bitslice.Width} {
				for trial := 0; trial < 8; trial++ {
					wideIn := make([]uint64, p.NumInputs*w)
					refIn := make([][]uint64, w)
					for blk := 0; blk < w; blk++ {
						refIn[blk] = make([]uint64, p.NumInputs)
						for i := range refIn[blk] {
							refIn[blk][i] = rng.Uint64()
							wideIn[i*w+blk] = refIn[blk][i]
						}
					}
					wideOut := make([]uint64, len(p.Outputs)*w)
					o.RunWideInto(w, wideIn, o.NewSlots(w), wideOut)
					for blk := 0; blk < w; blk++ {
						want := p.Run(refIn[blk], nil)
						blkOut := make([]uint64, len(p.Outputs))
						for i := range blkOut {
							blkOut[i] = wideOut[i*w+blk]
							if blkOut[i] != want[i] {
								t.Fatalf("w=%d blk=%d output %d: %#x != %#x", w, blk, i, blkOut[i], want[i])
							}
						}
						var mags [64]int
						bitslice.UnpackAll(blkOut, mags[:])
						for l := 0; l < 64; l++ {
							if ref := bitslice.Unpack(want, l); mags[l] != ref {
								t.Fatalf("w=%d blk=%d lane %d: unpack %d != %d", w, blk, l, mags[l], ref)
							}
						}
					}
				}
			}
		})
	}
}
