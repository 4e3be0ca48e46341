package bitslice

// Evaluation of Optimized programs, at width 1 (64 lanes, one word per
// slot) and at wider W (W contiguous words per slot → W×64 lanes per
// pass).  The wide forms lay the slot file out slot-major — slot s owns
// slots[s*W : (s+1)*W] — so every instruction touches W contiguous words
// with fixed-width inner loops the compiler can unroll and vectorize.
// Inputs are input-major (input i owns inputs[i*W : (i+1)*W]) and land in
// the first NumInputs slots with a single contiguous copy; outputs are
// gathered output-major the same way.
//
// All forms are branch-free with respect to data: the instruction
// sequence, like the source Program's, is fixed at compile time.

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
// instruction.  inputs is input-major with w words per input, slots must
// hold NumSlots*w words, out receives len(Outputs)*w words output-major.
//
// At widths 8 and 16 the active SIMD backend (dispatch package), if
// any, interprets the packed op stream in assembly; every backend
// computes the identical word stream, so the selection is invisible
// beyond speed.  Otherwise width 8 takes a fixed-width Go
// specialization and remaining widths the generic loop.
func (o *Optimized) RunWideInto(w int, inputs, slots, out []uint64) {
	o.checkRunArgs(w, inputs, slots, out)
	if (w == 8 || w == 16) && o.runSIMD(w, inputs, slots, out) {
		return
	}
	switch w {
	case 1:
		o.RunInto(inputs, slots, out)
	case 8:
		o.runWide8(inputs, slots, out)
	default:
		o.runWideGeneric(w, inputs, slots, out)
	}
}

func (o *Optimized) runWide8(inputs, slots, out []uint64) {
	const w = 8
	copy(slots[:o.NumInputs*w], inputs)
	if o.ZeroSlot >= 0 {
		z := (*[w]uint64)(slots[int(o.ZeroSlot)*w:])
		for j := range z {
			z[j] = 0
		}
	}
	if o.OnesSlot >= 0 {
		n := (*[w]uint64)(slots[int(o.OnesSlot)*w:])
		for j := range n {
			n[j] = ^uint64(0)
		}
	}
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
			case OpOr:
				d[0] = a[0] | b[0]
				d[1] = a[1] | b[1]
				d[2] = a[2] | b[2]
				d[3] = a[3] | b[3]
				d[4] = a[4] | b[4]
				d[5] = a[5] | b[5]
				d[6] = a[6] | b[6]
				d[7] = a[7] | b[7]
			case OpXor:
				d[0] = a[0] ^ b[0]
				d[1] = a[1] ^ b[1]
				d[2] = a[2] ^ b[2]
				d[3] = a[3] ^ b[3]
				d[4] = a[4] ^ b[4]
				d[5] = a[5] ^ b[5]
				d[6] = a[6] ^ b[6]
				d[7] = a[7] ^ b[7]
			case OpNot:
				d[0] = ^a[0]
				d[1] = ^a[1]
				d[2] = ^a[2]
				d[3] = ^a[3]
				d[4] = ^a[4]
				d[5] = ^a[5]
				d[6] = ^a[6]
				d[7] = ^a[7]
			case OpAndNot:
				d[0] = a[0] &^ b[0]
				d[1] = a[1] &^ b[1]
				d[2] = a[2] &^ b[2]
				d[3] = a[3] &^ b[3]
				d[4] = a[4] &^ b[4]
				d[5] = a[5] &^ b[5]
				d[6] = a[6] &^ b[6]
				d[7] = a[7] &^ b[7]
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
			case opAndNotOr:
				d[0] = c[0] | (a[0] &^ b[0])
				d[1] = c[1] | (a[1] &^ b[1])
				d[2] = c[2] | (a[2] &^ b[2])
				d[3] = c[3] | (a[3] &^ b[3])
				d[4] = c[4] | (a[4] &^ b[4])
				d[5] = c[5] | (a[5] &^ b[5])
				d[6] = c[6] | (a[6] &^ b[6])
				d[7] = c[7] | (a[7] &^ b[7])
			case opOrOr:
				d[0] = c[0] | (a[0] | b[0])
				d[1] = c[1] | (a[1] | b[1])
				d[2] = c[2] | (a[2] | b[2])
				d[3] = c[3] | (a[3] | b[3])
				d[4] = c[4] | (a[4] | b[4])
				d[5] = c[5] | (a[5] | b[5])
				d[6] = c[6] | (a[6] | b[6])
				d[7] = c[7] | (a[7] | b[7])
			case opAndAnd:
				d[0] = c[0] & (a[0] & b[0])
				d[1] = c[1] & (a[1] & b[1])
				d[2] = c[2] & (a[2] & b[2])
				d[3] = c[3] & (a[3] & b[3])
				d[4] = c[4] & (a[4] & b[4])
				d[5] = c[5] & (a[5] & b[5])
				d[6] = c[6] & (a[6] & b[6])
				d[7] = c[7] & (a[7] & b[7])
			case opOrAnd:
				d[0] = c[0] & (a[0] | b[0])
				d[1] = c[1] & (a[1] | b[1])
				d[2] = c[2] & (a[2] | b[2])
				d[3] = c[3] & (a[3] | b[3])
				d[4] = c[4] & (a[4] | b[4])
				d[5] = c[5] & (a[5] | b[5])
				d[6] = c[6] & (a[6] | b[6])
				d[7] = c[7] & (a[7] | b[7])
			case opAndNotAnd:
				d[0] = c[0] & (a[0] &^ b[0])
				d[1] = c[1] & (a[1] &^ b[1])
				d[2] = c[2] & (a[2] &^ b[2])
				d[3] = c[3] & (a[3] &^ b[3])
				d[4] = c[4] & (a[4] &^ b[4])
				d[5] = c[5] & (a[5] &^ b[5])
				d[6] = c[6] & (a[6] &^ b[6])
				d[7] = c[7] & (a[7] &^ b[7])
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
			case opAndNotAndNot:
				d[0] = (a[0] &^ b[0]) &^ c[0]
				d[1] = (a[1] &^ b[1]) &^ c[1]
				d[2] = (a[2] &^ b[2]) &^ c[2]
				d[3] = (a[3] &^ b[3]) &^ c[3]
				d[4] = (a[4] &^ b[4]) &^ c[4]
				d[5] = (a[5] &^ b[5]) &^ c[5]
				d[6] = (a[6] &^ b[6]) &^ c[6]
				d[7] = (a[7] &^ b[7]) &^ c[7]
			}
		}
	}
	for i, s := range o.Outputs {
		copy(out[i*w:(i+1)*w], slots[int(s)*w:int(s+1)*w])
	}
}

// runWideGeneric handles arbitrary widths.  Each op runs over the slot
// in fixed-width blocks of four words — (*[4]uint64) casts give the
// compiler constant trip counts it unrolls and vectorizes, where a
// single runtime-bounded `for j < w` loop kept bounds checks and a
// per-word branch in the hot path — with a scalar tail for w mod 4.
func (o *Optimized) runWideGeneric(w int, inputs, slots, out []uint64) {
	o.prepSlots(w, inputs, slots)
	wb := w &^ 3
	for i := range o.Code {
		in := &o.Code[i]
		a := slots[int(in.A)*w : (int(in.A)+1)*w]
		b := slots[int(in.B)*w : (int(in.B)+1)*w]
		c := slots[int(in.C)*w : (int(in.C)+1)*w]
		d := slots[int(in.Dst)*w : (int(in.Dst)+1)*w]
		switch in.Op {
		case OpAnd:
			for j := 0; j < wb; j += 4 {
				da, aa, ba := (*[4]uint64)(d[j:]), (*[4]uint64)(a[j:]), (*[4]uint64)(b[j:])
				da[0] = aa[0] & ba[0]
				da[1] = aa[1] & ba[1]
				da[2] = aa[2] & ba[2]
				da[3] = aa[3] & ba[3]
			}
			for j := wb; j < w; j++ {
				d[j] = a[j] & b[j]
			}
		case OpOr:
			for j := 0; j < wb; j += 4 {
				da, aa, ba := (*[4]uint64)(d[j:]), (*[4]uint64)(a[j:]), (*[4]uint64)(b[j:])
				da[0] = aa[0] | ba[0]
				da[1] = aa[1] | ba[1]
				da[2] = aa[2] | ba[2]
				da[3] = aa[3] | ba[3]
			}
			for j := wb; j < w; j++ {
				d[j] = a[j] | b[j]
			}
		case OpXor:
			for j := 0; j < wb; j += 4 {
				da, aa, ba := (*[4]uint64)(d[j:]), (*[4]uint64)(a[j:]), (*[4]uint64)(b[j:])
				da[0] = aa[0] ^ ba[0]
				da[1] = aa[1] ^ ba[1]
				da[2] = aa[2] ^ ba[2]
				da[3] = aa[3] ^ ba[3]
			}
			for j := wb; j < w; j++ {
				d[j] = a[j] ^ b[j]
			}
		case OpNot:
			for j := 0; j < wb; j += 4 {
				da, aa := (*[4]uint64)(d[j:]), (*[4]uint64)(a[j:])
				da[0] = ^aa[0]
				da[1] = ^aa[1]
				da[2] = ^aa[2]
				da[3] = ^aa[3]
			}
			for j := wb; j < w; j++ {
				d[j] = ^a[j]
			}
		case OpAndNot:
			for j := 0; j < wb; j += 4 {
				da, aa, ba := (*[4]uint64)(d[j:]), (*[4]uint64)(a[j:]), (*[4]uint64)(b[j:])
				da[0] = aa[0] &^ ba[0]
				da[1] = aa[1] &^ ba[1]
				da[2] = aa[2] &^ ba[2]
				da[3] = aa[3] &^ ba[3]
			}
			for j := wb; j < w; j++ {
				d[j] = a[j] &^ b[j]
			}
		case opAndOr:
			for j := 0; j < wb; j += 4 {
				da, aa, ba, ca := (*[4]uint64)(d[j:]), (*[4]uint64)(a[j:]), (*[4]uint64)(b[j:]), (*[4]uint64)(c[j:])
				da[0] = ca[0] | (aa[0] & ba[0])
				da[1] = ca[1] | (aa[1] & ba[1])
				da[2] = ca[2] | (aa[2] & ba[2])
				da[3] = ca[3] | (aa[3] & ba[3])
			}
			for j := wb; j < w; j++ {
				d[j] = c[j] | (a[j] & b[j])
			}
		case opAndNotOr:
			for j := 0; j < wb; j += 4 {
				da, aa, ba, ca := (*[4]uint64)(d[j:]), (*[4]uint64)(a[j:]), (*[4]uint64)(b[j:]), (*[4]uint64)(c[j:])
				da[0] = ca[0] | (aa[0] &^ ba[0])
				da[1] = ca[1] | (aa[1] &^ ba[1])
				da[2] = ca[2] | (aa[2] &^ ba[2])
				da[3] = ca[3] | (aa[3] &^ ba[3])
			}
			for j := wb; j < w; j++ {
				d[j] = c[j] | (a[j] &^ b[j])
			}
		case opOrOr:
			for j := 0; j < wb; j += 4 {
				da, aa, ba, ca := (*[4]uint64)(d[j:]), (*[4]uint64)(a[j:]), (*[4]uint64)(b[j:]), (*[4]uint64)(c[j:])
				da[0] = ca[0] | (aa[0] | ba[0])
				da[1] = ca[1] | (aa[1] | ba[1])
				da[2] = ca[2] | (aa[2] | ba[2])
				da[3] = ca[3] | (aa[3] | ba[3])
			}
			for j := wb; j < w; j++ {
				d[j] = c[j] | (a[j] | b[j])
			}
		case opAndAnd:
			for j := 0; j < wb; j += 4 {
				da, aa, ba, ca := (*[4]uint64)(d[j:]), (*[4]uint64)(a[j:]), (*[4]uint64)(b[j:]), (*[4]uint64)(c[j:])
				da[0] = ca[0] & (aa[0] & ba[0])
				da[1] = ca[1] & (aa[1] & ba[1])
				da[2] = ca[2] & (aa[2] & ba[2])
				da[3] = ca[3] & (aa[3] & ba[3])
			}
			for j := wb; j < w; j++ {
				d[j] = c[j] & (a[j] & b[j])
			}
		case opOrAnd:
			for j := 0; j < wb; j += 4 {
				da, aa, ba, ca := (*[4]uint64)(d[j:]), (*[4]uint64)(a[j:]), (*[4]uint64)(b[j:]), (*[4]uint64)(c[j:])
				da[0] = ca[0] & (aa[0] | ba[0])
				da[1] = ca[1] & (aa[1] | ba[1])
				da[2] = ca[2] & (aa[2] | ba[2])
				da[3] = ca[3] & (aa[3] | ba[3])
			}
			for j := wb; j < w; j++ {
				d[j] = c[j] & (a[j] | b[j])
			}
		case opAndNotAnd:
			for j := 0; j < wb; j += 4 {
				da, aa, ba, ca := (*[4]uint64)(d[j:]), (*[4]uint64)(a[j:]), (*[4]uint64)(b[j:]), (*[4]uint64)(c[j:])
				da[0] = ca[0] & (aa[0] &^ ba[0])
				da[1] = ca[1] & (aa[1] &^ ba[1])
				da[2] = ca[2] & (aa[2] &^ ba[2])
				da[3] = ca[3] & (aa[3] &^ ba[3])
			}
			for j := wb; j < w; j++ {
				d[j] = c[j] & (a[j] &^ b[j])
			}
		case opAndAndNot:
			for j := 0; j < wb; j += 4 {
				da, aa, ba, ca := (*[4]uint64)(d[j:]), (*[4]uint64)(a[j:]), (*[4]uint64)(b[j:]), (*[4]uint64)(c[j:])
				da[0] = (aa[0] & ba[0]) &^ ca[0]
				da[1] = (aa[1] & ba[1]) &^ ca[1]
				da[2] = (aa[2] & ba[2]) &^ ca[2]
				da[3] = (aa[3] & ba[3]) &^ ca[3]
			}
			for j := wb; j < w; j++ {
				d[j] = (a[j] & b[j]) &^ c[j]
			}
		case opAndNotAndNot:
			for j := 0; j < wb; j += 4 {
				da, aa, ba, ca := (*[4]uint64)(d[j:]), (*[4]uint64)(a[j:]), (*[4]uint64)(b[j:]), (*[4]uint64)(c[j:])
				da[0] = (aa[0] &^ ba[0]) &^ ca[0]
				da[1] = (aa[1] &^ ba[1]) &^ ca[1]
				da[2] = (aa[2] &^ ba[2]) &^ ca[2]
				da[3] = (aa[3] &^ ba[3]) &^ ca[3]
			}
			for j := wb; j < w; j++ {
				d[j] = (a[j] &^ b[j]) &^ c[j]
			}
		}
	}
	o.gatherOutputs(w, slots, out)
}
