package bitslice

import "ctgauss/internal/bitslice/dispatch"

// Assembly interpreters over the packed op stream (simd_amd64.s), one
// per vector ISA, both at Width.  Each executes n simdInstr records
// against the slot file; prologue (input copy, constant planes) and
// epilogue (output gather) stay in Go, shared with runWide16.

//go:noescape
func runCodeAVX2W16(code *simdInstr, n int, slots *uint64)

//go:noescape
func runCodeAVX512W16(code *simdInstr, n int, slots *uint64)

// runSIMD evaluates the program at Width with the active vector backend,
// if one is selected.  It reports false when the caller should fall back
// to runWide16: the result and the randomness consumption are
// bit-identical either way, so the choice is invisible to samplers.
func (o *Optimized) runSIMD(inputs, slots, out []uint64) bool {
	var kernel func(*simdInstr, int, *uint64)
	switch dispatch.Active() {
	case dispatch.AVX2:
		kernel = runCodeAVX2W16
	case dispatch.AVX512:
		kernel = runCodeAVX512W16
	default:
		return false
	}
	o.prepSlots(inputs, slots)
	if code := o.simdCode(); len(code) > 0 {
		kernel(&code[0], len(code), &slots[0])
	}
	o.gatherOutputs(slots, out)
	return true
}
