package bitslice

// Packed kernel form of an Optimized program.  The AVX2 kernel
// (simd_amd64.s) interprets the op stream in assembly; to keep its
// decode to a handful of instructions, the Go side pre-lowers Code into
// a flat array of dense opcodes and byte offsets:
//
//   - opcodes are renumbered contiguously 0..12 (OpZero/OpOnes never
//     survive Optimize, so the kernel dispatch tree covers every op the
//     stream can contain),
//   - slot indices become byte offsets into the slot file at Width
//     (slot s → s·Width·8), so the kernel adds the offset to the slot
//     base with no multiply.
//
// Operands an op does not use (B of a NOT, C of a base op) are packed
// as they come and never read: each kernel handler loads only the
// operands its op uses.  The packed form is cached on the Optimized, so
// the registry's shared copy packs once for every sampler that runs it.

// simdInstr is one packed instruction: a dense opcode and byte offsets
// of the operand and destination slots.  Layout is part of the kernel
// ABI (simd_amd64.s decodes fixed 20-byte records); TestSimdInstrLayout
// pins it.
type simdInstr struct {
	op         uint32
	a, b, c, d uint32
}

// simdInstrSize is the packed record size the kernel decodes.
const simdInstrSize = 20

// Dense kernel opcodes.  Order is part of the kernel ABI: the assembly
// dispatch tree compares against these values.
const (
	sopAnd          = iota // d = a & b
	sopOr                  // d = a | b
	sopXor                 // d = a ^ b
	sopNot                 // d = ^a
	sopAndNot              // d = a &^ b
	sopAndOr               // d = c | (a & b)
	sopAndNotOr            // d = c | (a &^ b)
	sopOrOr                // d = c | (a | b)
	sopAndAnd              // d = c & (a & b)
	sopOrAnd               // d = c & (a | b)
	sopAndNotAnd           // d = c & (a &^ b)
	sopAndAndNot           // d = (a & b) &^ c
	sopAndNotAndNot        // d = (a &^ b) &^ c
)

// denseOp maps an Optimized opcode to its kernel opcode.
func denseOp(op Op) uint32 {
	switch op {
	case OpAnd:
		return sopAnd
	case OpOr:
		return sopOr
	case OpXor:
		return sopXor
	case OpNot:
		return sopNot
	case OpAndNot:
		return sopAndNot
	case opAndOr:
		return sopAndOr
	case opAndNotOr:
		return sopAndNotOr
	case opOrOr:
		return sopOrOr
	case opAndAnd:
		return sopAndAnd
	case opOrAnd:
		return sopOrAnd
	case opAndNotAnd:
		return sopAndNotAnd
	case opAndAndNot:
		return sopAndAndNot
	case opAndNotAndNot:
		return sopAndNotAndNot
	}
	panic("bitslice: opcode " + op.String() + " has no kernel form")
}

// packSIMD lowers Code to the packed kernel form at Width.
func (o *Optimized) packSIMD() []simdInstr {
	const stride = Width * 8
	code := make([]simdInstr, len(o.Code))
	for i := range o.Code {
		in := &o.Code[i]
		si := simdInstr{
			op: denseOp(in.Op),
			a:  uint32(in.A) * stride,
			b:  uint32(in.B) * stride,
			d:  uint32(in.Dst) * stride,
		}
		if in.Op > OpOnes {
			si.c = uint32(in.C) * stride
		}
		code[i] = si
	}
	return code
}

// simdCode returns the packed form, packing on first use and caching
// thereafter.  The cache read is one atomic load — this sits on every
// refill's path.  Concurrent first uses may both pack; the results are
// identical and the last store wins.
func (o *Optimized) simdCode() []simdInstr {
	if p := o.simd.Load(); p != nil {
		return *p
	}
	code := o.packSIMD()
	o.simd.Store(&code)
	return code
}

// prepSlots is the width-Width evaluation preamble shared by both
// backends: load the input words and initialize the constant planes.
func (o *Optimized) prepSlots(inputs, slots []uint64) {
	const w = Width
	copy(slots[:o.NumInputs*w], inputs)
	if o.ZeroSlot >= 0 {
		z := slots[int(o.ZeroSlot)*w : (int(o.ZeroSlot)+1)*w]
		for j := range z {
			z[j] = 0
		}
	}
	if o.OnesSlot >= 0 {
		n := slots[int(o.OnesSlot)*w : (int(o.OnesSlot)+1)*w]
		for j := range n {
			n[j] = ^uint64(0)
		}
	}
}

// gatherOutputs is the width-Width evaluation epilogue shared by both
// backends: copy the output slots out output-major.
func (o *Optimized) gatherOutputs(slots, out []uint64) {
	const w = Width
	for i, s := range o.Outputs {
		copy(out[i*w:(i+1)*w], slots[int(s)*w:int(s+1)*w])
	}
}
