package bitslice

import "ctgauss/internal/bitslice/dispatch"

// Assembly interpreter over the packed op stream (simd_amd64.s), at
// Width.  It executes n simdInstr records against the slot file;
// prologue (input copy, constant planes) and epilogue (output gather)
// stay in Go, shared with runWide16.

//go:noescape
func runCodeAVX2W16(code *simdInstr, n int, slots *uint64)

// runSIMD evaluates the program at Width with the AVX2 kernel when
// dispatch selected it.  It reports false when the caller should fall
// back to runWide16: the result and the randomness consumption are
// bit-identical either way, so the choice is invisible to samplers.
func (o *Optimized) runSIMD(inputs, slots, out []uint64) bool {
	if dispatch.Active() != dispatch.AVX2 {
		return false
	}
	o.prepSlots(inputs, slots)
	if code := o.simdCode(); len(code) > 0 {
		runCodeAVX2W16(&code[0], len(code), &slots[0])
	}
	o.gatherOutputs(slots, out)
	return true
}
