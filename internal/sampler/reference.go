package sampler

import (
	"ctgauss/internal/bitslice"
	"ctgauss/internal/prng"
)

// Reference is the pre-optimization sampling path, retained verbatim: the
// SSA interpreter with one fresh register per instruction, inputs drawn
// one bounds-checked word at a time, and the per-bit shift-and-mask
// unpack.  It is the measurement baseline the optimized engine is
// compared against (BenchmarkTable2Sampler's refinterp rows) and the
// stream a width-1 Bitsliced must reproduce bit-for-bit.  Do not optimize
// it — its value is being the fixed point of comparison.
type Reference struct {
	prog *bitslice.Program
	rd   *prng.BitReader
	in   []uint64
	regs []uint64
	out  []uint64
	batchBuf
}

// NewReference wraps a compiled program and a random source.
func NewReference(prog *bitslice.Program, src prng.Source) *Reference {
	return &Reference{
		prog:     prog,
		rd:       prng.NewBitReader(src),
		in:       make([]uint64, prog.NumInputs),
		regs:     make([]uint64, prog.NumRegs),
		out:      make([]uint64, len(prog.Outputs)),
		batchBuf: newBatchBuf(64),
	}
}

// Name implements Sampler.
func (r *Reference) Name() string { return "bitsliced-reference" }

// BitsUsed implements Sampler.
func (r *Reference) BitsUsed() uint64 { return r.rd.BitsRead }

func (r *Reference) refill() {
	for i := range r.in {
		r.in[i] = r.rd.Uint64()
	}
	sign := r.rd.Uint64()
	r.prog.RunInto(r.in, r.regs, r.out)
	for l := 0; l < 64; l++ {
		mag := 0
		for i, w := range r.out {
			mag |= int((w>>uint(l))&1) << uint(i)
		}
		r.batch[l] = applySign(mag, (sign>>uint(l))&1)
	}
	r.used = 0
}

// Next implements Sampler.
func (r *Reference) Next() int { return r.next(r.refill) }

// NextBatch implements BatchSampler; see batchBuf for the drain-first
// contract.
func (r *Reference) NextBatch(dst []int) { r.nextBatch(dst, r.refill) }
