package bitslice

// Evaluation of Optimized programs at the two supported widths: width 1
// (64 lanes, one word per slot) and Width (Width contiguous words per
// slot → Width×64 lanes per pass).  The wide form lays the slot file out
// slot-major — slot s owns slots[s*Width : (s+1)*Width] — so every
// instruction touches Width contiguous words with a fixed-width body
// unrolled by hand.  Inputs are input-major (input i owns
// inputs[i*Width : (i+1)*Width]) and land in the first NumInputs slots
// with a single contiguous copy; outputs are gathered output-major the
// same way.
//
// All forms are branch-free with respect to data: the instruction
// sequence, like the source Program's, is fixed at compile time.

// Width is the evaluation width of every interpreted wide stream, in
// 64-bit words per slot: one pass yields Width×64 samples.  It is a
// constant rather than a property of the host, so a stream depends on
// its seed alone — the AVX2 kernel, when present, only runs the same
// width faster.
const Width = 16

// NewSlots returns a slot file sized for width w evaluations.
func (o *Optimized) NewSlots(w int) []uint64 { return make([]uint64, o.NumSlots*w) }

// Run evaluates the program on one 64-lane batch, allocating its working
// storage.  Prefer RunInto on hot paths.
func (o *Optimized) Run(inputs []uint64) []uint64 {
	out := make([]uint64, len(o.Outputs))
	o.RunInto(inputs, o.NewSlots(1), out)
	return out
}

// RunInto evaluates one 64-lane batch with caller-provided storage.
// len(inputs) must be NumInputs, len(slots) ≥ NumSlots, len(out) ≥
// len(Outputs).
func (o *Optimized) RunInto(inputs, slots, out []uint64) {
	o.checkRunArgs(1, inputs, slots, out)
	slots = slots[:o.NumSlots]
	copy(slots[:o.NumInputs], inputs)
	if o.ZeroSlot >= 0 {
		slots[o.ZeroSlot] = 0
	}
	if o.OnesSlot >= 0 {
		slots[o.OnesSlot] = ^uint64(0)
	}
	// Dispatch is two nested switches so the compiler emits conditional
	// branch trees rather than one big jump table: a single indirect
	// branch over 13 targets mispredicts on almost every instruction of
	// an irregular op sequence (~15 cycles each), which measured ~4×
	// slower than the trees on the generated circuits.
	for _, in := range o.Code {
		if in.Op <= OpOnes {
			switch in.Op {
			case OpAnd:
				slots[in.Dst] = slots[in.A] & slots[in.B]
			case OpOr:
				slots[in.Dst] = slots[in.A] | slots[in.B]
			case OpXor:
				slots[in.Dst] = slots[in.A] ^ slots[in.B]
			case OpNot:
				slots[in.Dst] = ^slots[in.A]
			case OpAndNot:
				slots[in.Dst] = slots[in.A] &^ slots[in.B]
			}
		} else if in.Op <= opAndNotAnd {
			switch in.Op {
			case opAndOr:
				slots[in.Dst] = slots[in.C] | (slots[in.A] & slots[in.B])
			case opAndNotOr:
				slots[in.Dst] = slots[in.C] | (slots[in.A] &^ slots[in.B])
			case opOrOr:
				slots[in.Dst] = slots[in.C] | (slots[in.A] | slots[in.B])
			case opAndAnd:
				slots[in.Dst] = slots[in.C] & (slots[in.A] & slots[in.B])
			case opOrAnd:
				slots[in.Dst] = slots[in.C] & (slots[in.A] | slots[in.B])
			case opAndNotAnd:
				slots[in.Dst] = slots[in.C] & (slots[in.A] &^ slots[in.B])
			}
		} else {
			switch in.Op {
			case opAndAndNot:
				slots[in.Dst] = (slots[in.A] & slots[in.B]) &^ slots[in.C]
			case opAndNotAndNot:
				slots[in.Dst] = (slots[in.A] &^ slots[in.B]) &^ slots[in.C]
			}
		}
	}
	for i, s := range o.Outputs {
		out[i] = slots[s]
	}
}

// RunWideInto evaluates w 64-lane batches (w×64 lanes) in one pass over
// the instruction stream, amortizing dispatch across w words per
// instruction.  w must be 1 or Width; any other width panics.  inputs is
// input-major with w words per input, slots must hold NumSlots*w words,
// out receives len(Outputs)*w words output-major.
//
// At Width the AVX2 kernel interprets the packed op stream in assembly
// when the dispatch package selected it, and runWide16 runs everywhere
// else; both compute the identical word stream, so the selection is
// invisible beyond speed.
func (o *Optimized) RunWideInto(w int, inputs, slots, out []uint64) {
	o.checkRunArgs(w, inputs, slots, out)
	if w == 1 {
		o.RunInto(inputs, slots, out)
		return
	}
	if !o.runSIMD(inputs, slots, out) {
		o.runWide16(inputs, slots, out)
	}
}

// runWide16 is the portable wide interpreter: each op runs over one
// Width-word slot as sixteen unrolled word operations.  The fixed-size
// array casts hoist every bounds check out of the op body, and the
// nested switches keep RunInto's branch-tree dispatch.
func (o *Optimized) runWide16(inputs, slots, out []uint64) {
	const w = Width
	o.prepSlots(inputs, slots)
	for _, in := range o.Code {
		a := (*[w]uint64)(slots[int(in.A)*w:])
		b := (*[w]uint64)(slots[int(in.B)*w:])
		d := (*[w]uint64)(slots[int(in.Dst)*w:])
		if in.Op <= OpOnes {
			switch in.Op {
			case OpAnd:
				d[0] = a[0] & b[0]
				d[1] = a[1] & b[1]
				d[2] = a[2] & b[2]
				d[3] = a[3] & b[3]
				d[4] = a[4] & b[4]
				d[5] = a[5] & b[5]
				d[6] = a[6] & b[6]
				d[7] = a[7] & b[7]
				d[8] = a[8] & b[8]
				d[9] = a[9] & b[9]
				d[10] = a[10] & b[10]
				d[11] = a[11] & b[11]
				d[12] = a[12] & b[12]
				d[13] = a[13] & b[13]
				d[14] = a[14] & b[14]
				d[15] = a[15] & b[15]
			case OpOr:
				d[0] = a[0] | b[0]
				d[1] = a[1] | b[1]
				d[2] = a[2] | b[2]
				d[3] = a[3] | b[3]
				d[4] = a[4] | b[4]
				d[5] = a[5] | b[5]
				d[6] = a[6] | b[6]
				d[7] = a[7] | b[7]
				d[8] = a[8] | b[8]
				d[9] = a[9] | b[9]
				d[10] = a[10] | b[10]
				d[11] = a[11] | b[11]
				d[12] = a[12] | b[12]
				d[13] = a[13] | b[13]
				d[14] = a[14] | b[14]
				d[15] = a[15] | b[15]
			case OpXor:
				d[0] = a[0] ^ b[0]
				d[1] = a[1] ^ b[1]
				d[2] = a[2] ^ b[2]
				d[3] = a[3] ^ b[3]
				d[4] = a[4] ^ b[4]
				d[5] = a[5] ^ b[5]
				d[6] = a[6] ^ b[6]
				d[7] = a[7] ^ b[7]
				d[8] = a[8] ^ b[8]
				d[9] = a[9] ^ b[9]
				d[10] = a[10] ^ b[10]
				d[11] = a[11] ^ b[11]
				d[12] = a[12] ^ b[12]
				d[13] = a[13] ^ b[13]
				d[14] = a[14] ^ b[14]
				d[15] = a[15] ^ b[15]
			case OpNot:
				d[0] = ^a[0]
				d[1] = ^a[1]
				d[2] = ^a[2]
				d[3] = ^a[3]
				d[4] = ^a[4]
				d[5] = ^a[5]
				d[6] = ^a[6]
				d[7] = ^a[7]
				d[8] = ^a[8]
				d[9] = ^a[9]
				d[10] = ^a[10]
				d[11] = ^a[11]
				d[12] = ^a[12]
				d[13] = ^a[13]
				d[14] = ^a[14]
				d[15] = ^a[15]
			case OpAndNot:
				d[0] = a[0] &^ b[0]
				d[1] = a[1] &^ b[1]
				d[2] = a[2] &^ b[2]
				d[3] = a[3] &^ b[3]
				d[4] = a[4] &^ b[4]
				d[5] = a[5] &^ b[5]
				d[6] = a[6] &^ b[6]
				d[7] = a[7] &^ b[7]
				d[8] = a[8] &^ b[8]
				d[9] = a[9] &^ b[9]
				d[10] = a[10] &^ b[10]
				d[11] = a[11] &^ b[11]
				d[12] = a[12] &^ b[12]
				d[13] = a[13] &^ b[13]
				d[14] = a[14] &^ b[14]
				d[15] = a[15] &^ b[15]
			}
		} else if in.Op <= opAndNotAnd {
			c := (*[w]uint64)(slots[int(in.C)*w:])
			switch in.Op {
			case opAndOr:
				d[0] = c[0] | (a[0] & b[0])
				d[1] = c[1] | (a[1] & b[1])
				d[2] = c[2] | (a[2] & b[2])
				d[3] = c[3] | (a[3] & b[3])
				d[4] = c[4] | (a[4] & b[4])
				d[5] = c[5] | (a[5] & b[5])
				d[6] = c[6] | (a[6] & b[6])
				d[7] = c[7] | (a[7] & b[7])
				d[8] = c[8] | (a[8] & b[8])
				d[9] = c[9] | (a[9] & b[9])
				d[10] = c[10] | (a[10] & b[10])
				d[11] = c[11] | (a[11] & b[11])
				d[12] = c[12] | (a[12] & b[12])
				d[13] = c[13] | (a[13] & b[13])
				d[14] = c[14] | (a[14] & b[14])
				d[15] = c[15] | (a[15] & b[15])
			case opAndNotOr:
				d[0] = c[0] | (a[0] &^ b[0])
				d[1] = c[1] | (a[1] &^ b[1])
				d[2] = c[2] | (a[2] &^ b[2])
				d[3] = c[3] | (a[3] &^ b[3])
				d[4] = c[4] | (a[4] &^ b[4])
				d[5] = c[5] | (a[5] &^ b[5])
				d[6] = c[6] | (a[6] &^ b[6])
				d[7] = c[7] | (a[7] &^ b[7])
				d[8] = c[8] | (a[8] &^ b[8])
				d[9] = c[9] | (a[9] &^ b[9])
				d[10] = c[10] | (a[10] &^ b[10])
				d[11] = c[11] | (a[11] &^ b[11])
				d[12] = c[12] | (a[12] &^ b[12])
				d[13] = c[13] | (a[13] &^ b[13])
				d[14] = c[14] | (a[14] &^ b[14])
				d[15] = c[15] | (a[15] &^ b[15])
			case opOrOr:
				d[0] = c[0] | (a[0] | b[0])
				d[1] = c[1] | (a[1] | b[1])
				d[2] = c[2] | (a[2] | b[2])
				d[3] = c[3] | (a[3] | b[3])
				d[4] = c[4] | (a[4] | b[4])
				d[5] = c[5] | (a[5] | b[5])
				d[6] = c[6] | (a[6] | b[6])
				d[7] = c[7] | (a[7] | b[7])
				d[8] = c[8] | (a[8] | b[8])
				d[9] = c[9] | (a[9] | b[9])
				d[10] = c[10] | (a[10] | b[10])
				d[11] = c[11] | (a[11] | b[11])
				d[12] = c[12] | (a[12] | b[12])
				d[13] = c[13] | (a[13] | b[13])
				d[14] = c[14] | (a[14] | b[14])
				d[15] = c[15] | (a[15] | b[15])
			case opAndAnd:
				d[0] = c[0] & (a[0] & b[0])
				d[1] = c[1] & (a[1] & b[1])
				d[2] = c[2] & (a[2] & b[2])
				d[3] = c[3] & (a[3] & b[3])
				d[4] = c[4] & (a[4] & b[4])
				d[5] = c[5] & (a[5] & b[5])
				d[6] = c[6] & (a[6] & b[6])
				d[7] = c[7] & (a[7] & b[7])
				d[8] = c[8] & (a[8] & b[8])
				d[9] = c[9] & (a[9] & b[9])
				d[10] = c[10] & (a[10] & b[10])
				d[11] = c[11] & (a[11] & b[11])
				d[12] = c[12] & (a[12] & b[12])
				d[13] = c[13] & (a[13] & b[13])
				d[14] = c[14] & (a[14] & b[14])
				d[15] = c[15] & (a[15] & b[15])
			case opOrAnd:
				d[0] = c[0] & (a[0] | b[0])
				d[1] = c[1] & (a[1] | b[1])
				d[2] = c[2] & (a[2] | b[2])
				d[3] = c[3] & (a[3] | b[3])
				d[4] = c[4] & (a[4] | b[4])
				d[5] = c[5] & (a[5] | b[5])
				d[6] = c[6] & (a[6] | b[6])
				d[7] = c[7] & (a[7] | b[7])
				d[8] = c[8] & (a[8] | b[8])
				d[9] = c[9] & (a[9] | b[9])
				d[10] = c[10] & (a[10] | b[10])
				d[11] = c[11] & (a[11] | b[11])
				d[12] = c[12] & (a[12] | b[12])
				d[13] = c[13] & (a[13] | b[13])
				d[14] = c[14] & (a[14] | b[14])
				d[15] = c[15] & (a[15] | b[15])
			case opAndNotAnd:
				d[0] = c[0] & (a[0] &^ b[0])
				d[1] = c[1] & (a[1] &^ b[1])
				d[2] = c[2] & (a[2] &^ b[2])
				d[3] = c[3] & (a[3] &^ b[3])
				d[4] = c[4] & (a[4] &^ b[4])
				d[5] = c[5] & (a[5] &^ b[5])
				d[6] = c[6] & (a[6] &^ b[6])
				d[7] = c[7] & (a[7] &^ b[7])
				d[8] = c[8] & (a[8] &^ b[8])
				d[9] = c[9] & (a[9] &^ b[9])
				d[10] = c[10] & (a[10] &^ b[10])
				d[11] = c[11] & (a[11] &^ b[11])
				d[12] = c[12] & (a[12] &^ b[12])
				d[13] = c[13] & (a[13] &^ b[13])
				d[14] = c[14] & (a[14] &^ b[14])
				d[15] = c[15] & (a[15] &^ b[15])
			}
		} else {
			c := (*[w]uint64)(slots[int(in.C)*w:])
			switch in.Op {
			case opAndAndNot:
				d[0] = (a[0] & b[0]) &^ c[0]
				d[1] = (a[1] & b[1]) &^ c[1]
				d[2] = (a[2] & b[2]) &^ c[2]
				d[3] = (a[3] & b[3]) &^ c[3]
				d[4] = (a[4] & b[4]) &^ c[4]
				d[5] = (a[5] & b[5]) &^ c[5]
				d[6] = (a[6] & b[6]) &^ c[6]
				d[7] = (a[7] & b[7]) &^ c[7]
				d[8] = (a[8] & b[8]) &^ c[8]
				d[9] = (a[9] & b[9]) &^ c[9]
				d[10] = (a[10] & b[10]) &^ c[10]
				d[11] = (a[11] & b[11]) &^ c[11]
				d[12] = (a[12] & b[12]) &^ c[12]
				d[13] = (a[13] & b[13]) &^ c[13]
				d[14] = (a[14] & b[14]) &^ c[14]
				d[15] = (a[15] & b[15]) &^ c[15]
			case opAndNotAndNot:
				d[0] = (a[0] &^ b[0]) &^ c[0]
				d[1] = (a[1] &^ b[1]) &^ c[1]
				d[2] = (a[2] &^ b[2]) &^ c[2]
				d[3] = (a[3] &^ b[3]) &^ c[3]
				d[4] = (a[4] &^ b[4]) &^ c[4]
				d[5] = (a[5] &^ b[5]) &^ c[5]
				d[6] = (a[6] &^ b[6]) &^ c[6]
				d[7] = (a[7] &^ b[7]) &^ c[7]
				d[8] = (a[8] &^ b[8]) &^ c[8]
				d[9] = (a[9] &^ b[9]) &^ c[9]
				d[10] = (a[10] &^ b[10]) &^ c[10]
				d[11] = (a[11] &^ b[11]) &^ c[11]
				d[12] = (a[12] &^ b[12]) &^ c[12]
				d[13] = (a[13] &^ b[13]) &^ c[13]
				d[14] = (a[14] &^ b[14]) &^ c[14]
				d[15] = (a[15] &^ b[15]) &^ c[15]
			}
		}
	}
	o.gatherOutputs(slots, out)
}
