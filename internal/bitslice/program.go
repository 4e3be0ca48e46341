// Package bitslice compiles minimized Boolean expressions into
// input-independent straight-line programs of 64-bit word operations and
// evaluates them 64 samples at a time — the SIMD bit-slicing of §3.2/§5.2.
//
// A Program is constant-time by construction: its instruction sequence is
// fixed at compile time and evaluation never branches on data.  The
// ctcheck package verifies this property dynamically as well.
//
// Its evaluation form, Optimized, runs at one of two widths: 1 word per
// slot (64 lanes, the paper's per-batch layout) or Width = 16 words per
// slot (1024 lanes), the width of every interpreted serving stream.  The
// dispatch package picks who runs width 16 — the AVX2 kernel or the
// portable Go body — and never changes the result.
package bitslice

import "fmt"

// Op is a word-level Boolean operation.
type Op uint8

// Supported operations.  OpAndNot computes a &^ b in one instruction,
// matching the ANDN instruction the paper's target (BMI1) provides.
const (
	OpAnd Op = iota
	OpOr
	OpXor
	OpNot
	OpAndNot
	OpZero
	OpOnes
)

func (o Op) String() string {
	switch o {
	case OpAnd:
		return "and"
	case OpOr:
		return "or"
	case OpXor:
		return "xor"
	case OpNot:
		return "not"
	case OpAndNot:
		return "andnot"
	case OpZero:
		return "zero"
	case OpOnes:
		return "ones"
	}
	return "?"
}

// Instr is one three-address instruction; Dst is always a fresh register
// (SSA-like), A and B index earlier registers.
type Instr struct {
	Op   Op
	A, B int
	Dst  int
}

// Program is a compiled straight-line sampler circuit.
type Program struct {
	NumInputs  int
	NumRegs    int
	Code       []Instr
	Outputs    []int // register indices of the output words, LSB first
	SignInput  int   // index of the sign-bit input word, or -1
	ValueBits  int   // number of magnitude output bits (== len(Outputs))
	MaxSupport int   // largest representable sample magnitude
}

// builder assembles a Program with common-subexpression caching.  When cse
// is false only complements (OpNot) are cached, modelling a plain two-level
// evaluation where each product term is computed independently — the
// prior-work baseline; the paper's mux-chain construction is exactly the
// systematic sharing that full CSE plus the c_κ chain make explicit.
type builder struct {
	p     *Program
	cache map[[3]int]int // (op, a, b) -> reg
	cse   bool
}

func newBuilder(numInputs int, cse bool) *builder {
	return &builder{
		p:     &Program{NumInputs: numInputs, NumRegs: numInputs, SignInput: -1},
		cache: make(map[[3]int]int),
		cse:   cse,
	}
}

func (b *builder) emit(op Op, a, bb int) int {
	key := [3]int{int(op), a, bb}
	if op == OpAnd || op == OpOr || op == OpXor {
		// Commutative: canonical operand order.
		if bb < a {
			key = [3]int{int(op), bb, a}
		}
	}
	cacheable := b.cse || op == OpNot || op == OpZero || op == OpOnes
	if r, ok := b.cache[key]; ok && cacheable {
		return r
	}
	dst := b.p.NumRegs
	b.p.NumRegs++
	b.p.Code = append(b.p.Code, Instr{Op: op, A: key[1], B: key[2], Dst: dst})
	b.cache[key] = dst
	return dst
}

func (b *builder) and(x, y int) int    { return b.emit(OpAnd, x, y) }
func (b *builder) or(x, y int) int     { return b.emit(OpOr, x, y) }
func (b *builder) not(x int) int       { return b.emit(OpNot, x, x) }
func (b *builder) andNot(x, y int) int { return b.emit(OpAndNot, x, y) }
func (b *builder) zero() int           { return b.emit(OpZero, 0, 0) }
func (b *builder) ones() int           { return b.emit(OpOnes, 0, 0) }

// Run evaluates the program on the given input words.  len(inputs) must be
// NumInputs; each word carries one bit position for 64 independent lanes.
// It returns the output words (magnitude bits, LSB first).
func (p *Program) Run(inputs []uint64, regs []uint64) []uint64 {
	if len(inputs) != p.NumInputs {
		panic(fmt.Sprintf("bitslice: got %d inputs, want %d", len(inputs), p.NumInputs))
	}
	if cap(regs) < p.NumRegs {
		regs = make([]uint64, p.NumRegs)
	}
	regs = regs[:p.NumRegs]
	copy(regs, inputs)
	for _, in := range p.Code {
		switch in.Op {
		case OpAnd:
			regs[in.Dst] = regs[in.A] & regs[in.B]
		case OpOr:
			regs[in.Dst] = regs[in.A] | regs[in.B]
		case OpXor:
			regs[in.Dst] = regs[in.A] ^ regs[in.B]
		case OpNot:
			regs[in.Dst] = ^regs[in.A]
		case OpAndNot:
			regs[in.Dst] = regs[in.A] &^ regs[in.B]
		case OpZero:
			regs[in.Dst] = 0
		case OpOnes:
			regs[in.Dst] = ^uint64(0)
		}
	}
	out := make([]uint64, len(p.Outputs))
	for i, r := range p.Outputs {
		out[i] = regs[r]
	}
	return out
}

// RunInto is Run with caller-provided output storage (no allocation).
func (p *Program) RunInto(inputs, regs, out []uint64) {
	if len(inputs) != p.NumInputs {
		panic(fmt.Sprintf("bitslice: got %d inputs, want %d", len(inputs), p.NumInputs))
	}
	copy(regs, inputs)
	for _, in := range p.Code {
		switch in.Op {
		case OpAnd:
			regs[in.Dst] = regs[in.A] & regs[in.B]
		case OpOr:
			regs[in.Dst] = regs[in.A] | regs[in.B]
		case OpXor:
			regs[in.Dst] = regs[in.A] ^ regs[in.B]
		case OpNot:
			regs[in.Dst] = ^regs[in.A]
		case OpAndNot:
			regs[in.Dst] = regs[in.A] &^ regs[in.B]
		case OpZero:
			regs[in.Dst] = 0
		case OpOnes:
			regs[in.Dst] = ^uint64(0)
		}
	}
	for i, r := range p.Outputs {
		out[i] = regs[r]
	}
}

// OpCount returns the number of word instructions — the cost model the
// paper reports as cycles-per-batch on its bitsliced target.
func (p *Program) OpCount() int { return len(p.Code) }

// Unpack extracts lane l's magnitude from packed output words.
func Unpack(out []uint64, lane int) int {
	v := 0
	for i, w := range out {
		v |= int((w>>uint(lane))&1) << uint(i)
	}
	return v
}
