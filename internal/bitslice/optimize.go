package bitslice

import (
	"fmt"
	"sync/atomic"
)

// This file implements the optimizing compiler pass over a Program.  The
// SSA form the builder emits is convenient to construct and serialize but
// hostile to evaluate: one fresh register per instruction means the σ=2
// circuit drags a 3.7k-word register file (29 KB) through every batch and
// the σ=6.15543 circuit an 87 KB one — far outside L1.  Optimize rewrites
// the program into a dense, register-allocated form whose working set is
// the maximum number of simultaneously live values (~140 words for the
// paper's circuits, ≈1 KB) and whose instruction count is cut by constant
// folding, dead-code elimination, and fusing the dominant two-instruction
// patterns of the mux-chain construction into single dispatches.
//
// Everything here is a semantics-preserving rewrite of a branch-free
// straight-line program, so the constant-time-by-construction property of
// Program carries over unchanged: the optimized instruction sequence is
// still fixed at compile time and evaluation never branches on data.

// Fused opcodes.  These exist only in Optimized code — never in a Program
// and never on disk (Program.Validate rejects anything above OpOnes).
// Each combines a producer whose single consumer is the immediately
// following instruction, the shape CompileMux emits for every mux-chain
// accumulation (out |= sel & f) and every cube-literal chain.
const (
	opAndOr        Op = OpOnes + 1 + iota // dst = c | (a & b)
	opAndNotOr                            // dst = c | (a &^ b)
	opOrOr                                // dst = c | (a | b)
	opAndAnd                              // dst = c & (a & b)
	opOrAnd                               // dst = c & (a | b)
	opAndNotAnd                           // dst = c & (a &^ b)
	opAndAndNot                           // dst = (a & b) &^ c
	opAndNotAndNot                        // dst = (a &^ b) &^ c
)

// OInstr is one register-allocated instruction.  A, B, C and Dst index the
// dense slot file; C is only meaningful for the fused opcodes.  Slots are
// reused as values die, so unlike Instr this is not SSA: Dst may equal an
// operand slot (the operand is read before the write).
type OInstr struct {
	Op           Op
	A, B, C, Dst int32
}

// Optimized is the evaluation form of a circuit: same outputs as the
// source Program on every input, executed over a slot file of NumSlots
// words (per lane-word of width).  Obtain one via Optimize.
type Optimized struct {
	NumInputs  int
	NumSlots   int // dense register-file size (max simultaneous liveness)
	Code       []OInstr
	Outputs    []int32 // slot indices of the output words, LSB first
	ValueBits  int
	MaxSupport int
	// ZeroSlot/OnesSlot hold constant output planes when an output bit
	// folded to a constant; -1 when unused.  Evaluation initializes them
	// before executing Code.
	ZeroSlot, OnesSlot int32

	source *Program

	// simd caches the packed kernel form (simd.go) at Width; read with
	// one atomic load on the refill path.
	simd atomic.Pointer[[]simdInstr]
}

// Program returns the source program this form was compiled from.
func (o *Optimized) Program() *Program { return o.source }

// OpCount returns the optimized instruction count (fused pairs count once).
func (o *Optimized) OpCount() int { return len(o.Code) }

// value kinds tracked by the propagation pass.
const (
	valReg  = iota // canonical register `reg`
	valZero        // constant 0
	valOnes        // constant ^0
)

// absval is the abstract value of an SSA register after propagation.
type absval struct {
	kind int
	reg  int
}

// readsB reports whether a base op reads its B operand.
func readsB(op Op) bool {
	switch op {
	case OpAnd, OpOr, OpXor, OpAndNot:
		return true
	}
	return false
}

// Optimize compiles a valid Program (fresh from the builder or past
// Validate) into its register-allocated evaluation form.  The pass is
// deterministic: one Program always yields the same Optimized.
func Optimize(p *Program) *Optimized {
	vals, norm := propagate(p)
	kept := deadCodeEliminate(p, vals, norm)
	fused := fuse(p, vals, norm, kept)
	return allocate(p, vals, fused)
}

// propagate runs constant folding and copy propagation over the SSA code.
// It returns the abstract value of every register and a normalized copy of
// the code in which the surviving instructions read registers only (the
// residual constant-operand forms ones^x and ones&^x are rewritten to
// OpNot).  Instructions whose result folds to a constant or an alias of an
// earlier register need not be executed; the survivors are identified by
// vals[dst] being the canonical valReg of dst itself.
func propagate(p *Program) ([]absval, []Instr) {
	vals := make([]absval, p.NumRegs)
	for i := 0; i < p.NumInputs; i++ {
		vals[i] = absval{kind: valReg, reg: i}
	}
	norm := make([]Instr, len(p.Code))
	copy(norm, p.Code)
	for idx, in := range p.Code {
		a := vals[in.A]
		var b absval
		if readsB(in.Op) {
			b = vals[in.B]
		}
		v := absval{kind: valReg, reg: in.Dst} // default: instruction survives
		switch in.Op {
		case OpZero:
			v = absval{kind: valZero}
		case OpOnes:
			v = absval{kind: valOnes}
		case OpNot:
			switch a.kind {
			case valZero:
				v = absval{kind: valOnes}
			case valOnes:
				v = absval{kind: valZero}
			}
		case OpAnd:
			switch {
			case a.kind == valZero || b.kind == valZero:
				v = absval{kind: valZero}
			case a.kind == valOnes:
				v = b
			case b.kind == valOnes:
				v = a
			case a.reg == b.reg:
				v = a
			}
		case OpOr:
			switch {
			case a.kind == valOnes || b.kind == valOnes:
				v = absval{kind: valOnes}
			case a.kind == valZero:
				v = b
			case b.kind == valZero:
				v = a
			case a.reg == b.reg:
				v = a
			}
		case OpXor:
			switch {
			case a.kind == valZero && b.kind == valZero:
				v = absval{kind: valZero}
			case (a.kind == valZero && b.kind == valOnes) || (a.kind == valOnes && b.kind == valZero):
				v = absval{kind: valOnes}
			case a.kind == valOnes && b.kind == valOnes:
				v = absval{kind: valZero}
			case a.kind == valZero:
				v = b
			case b.kind == valZero:
				v = a
			case a.kind == valOnes:
				norm[idx] = Instr{Op: OpNot, A: in.B, B: in.B, Dst: in.Dst}
			case b.kind == valOnes:
				norm[idx] = Instr{Op: OpNot, A: in.A, B: in.A, Dst: in.Dst}
			case a.reg == b.reg:
				v = absval{kind: valZero}
			}
		case OpAndNot: // a &^ b
			switch {
			case a.kind == valZero || b.kind == valOnes:
				v = absval{kind: valZero}
			case b.kind == valZero:
				v = a
			case a.kind == valOnes:
				norm[idx] = Instr{Op: OpNot, A: in.B, B: in.B, Dst: in.Dst}
			case a.reg == b.reg:
				v = absval{kind: valZero}
			}
		}
		vals[in.Dst] = v
	}
	return vals, norm
}

// survives reports whether the instruction writing dst must execute.
func survives(vals []absval, dst int) bool {
	return vals[dst].kind == valReg && vals[dst].reg == dst
}

// operand returns the canonical register an operand resolves to.  Only
// valid for operands of surviving instructions whose value did not fold
// (propagate's fold rules consume every constant operand, so a surviving
// instruction reads registers only).
func operand(vals []absval, r int) int { return vals[r].reg }

// deadCodeEliminate marks which surviving instructions are reachable
// backward from the outputs.  It returns live[dst] for every register.
func deadCodeEliminate(p *Program, vals []absval, norm []Instr) []bool {
	live := make([]bool, p.NumRegs)
	for _, o := range p.Outputs {
		if vals[o].kind == valReg {
			live[vals[o].reg] = true
		}
	}
	for i := len(norm) - 1; i >= 0; i-- {
		in := norm[i]
		if !survives(vals, in.Dst) || !live[in.Dst] {
			continue
		}
		live[operand(vals, in.A)] = true
		if readsB(in.Op) {
			live[operand(vals, in.B)] = true
		}
	}
	return live
}

// fusePair maps (producer op, consumer op, producer-result position) to a
// fused opcode; ok is false when the pair has no fused form.  pos is 'A'
// when the producer's result is the consumer's A operand (only meaningful
// for the non-commutative AndNot; And/Or operands are canonicalized).
func fusePair(first, second Op, pos byte) (Op, bool) {
	switch second {
	case OpOr:
		switch first {
		case OpAnd:
			return opAndOr, true
		case OpAndNot:
			return opAndNotOr, true
		case OpOr:
			return opOrOr, true
		}
	case OpAnd:
		switch first {
		case OpAnd:
			return opAndAnd, true
		case OpOr:
			return opOrAnd, true
		case OpAndNot:
			return opAndNotAnd, true
		}
	case OpAndNot:
		if pos != 'A' {
			return 0, false // no fused form for c &^ t (never emitted in practice)
		}
		switch first {
		case OpAnd:
			return opAndAndNot, true
		case OpAndNot:
			return opAndNotAndNot, true
		}
	}
	return 0, false
}

// fuse lowers the live SSA instructions to OInstr form (operands resolved
// to canonical registers) and merges producer/consumer pairs where the
// producer's only use is the immediately following live instruction —
// ~half of a mux-chain circuit.  Register numbering is still SSA here;
// allocate assigns slots.
func fuse(p *Program, vals []absval, norm []Instr, live []bool) []OInstr {
	// Use counts over the live instructions and outputs, on canonical regs.
	uses := make([]int32, p.NumRegs)
	for _, in := range norm {
		if !survives(vals, in.Dst) || !live[in.Dst] {
			continue
		}
		uses[operand(vals, in.A)]++
		if readsB(in.Op) {
			uses[operand(vals, in.B)]++
		}
	}
	for _, o := range p.Outputs {
		if vals[o].kind == valReg {
			uses[vals[o].reg]++
		}
	}

	lowered := make([]OInstr, 0, len(norm))
	for _, in := range norm {
		if !survives(vals, in.Dst) || !live[in.Dst] {
			continue
		}
		a := operand(vals, in.A)
		b := a
		if readsB(in.Op) {
			b = operand(vals, in.B)
		}
		lowered = append(lowered, OInstr{Op: in.Op, A: int32(a), B: int32(b), Dst: int32(in.Dst)})
	}

	out := make([]OInstr, 0, len(lowered))
	for i := 0; i < len(lowered); i++ {
		cur := lowered[i]
		if i+1 < len(lowered) && uses[cur.Dst] == 1 {
			next := lowered[i+1]
			t := cur.Dst
			var pos byte
			var c int32
			switch {
			case next.A == t && next.B == t:
				pos = 0 // both operands are the producer; not fusable
			case next.A == t:
				pos, c = 'A', next.B
			case next.B == t && readsB(next.Op):
				pos, c = 'B', next.A
			}
			if pos != 0 {
				if next.Op == OpAnd || next.Op == OpOr {
					pos = 'B' // commutative: position is irrelevant
				}
				if fop, ok := fusePair(cur.Op, next.Op, pos); ok {
					out = append(out, OInstr{Op: fop, A: cur.A, B: cur.B, C: c, Dst: next.Dst})
					i++ // consumed the pair
					continue
				}
			}
		}
		out = append(out, cur)
	}
	return out
}

// reads calls f for each register an OInstr reads.
func (in *OInstr) reads(f func(int32)) {
	switch in.Op {
	case OpNot:
		f(in.A)
	case OpAnd, OpOr, OpXor, OpAndNot:
		f(in.A)
		f(in.B)
	default: // fused
		f(in.A)
		f(in.B)
		f(in.C)
	}
}

// allocate maps SSA registers to a dense slot file by linear scan: a slot
// is released the moment its value's last reader has executed and reused
// (LIFO, for cache locality) by the next definition.  Inputs are pinned to
// slots 0..NumInputs-1 so evaluation loads them with one contiguous copy;
// output slots are never released.
func allocate(p *Program, vals []absval, code []OInstr) *Optimized {
	const never = -1
	lastUse := make([]int, p.NumRegs)
	for i := range lastUse {
		lastUse[i] = never
	}
	for i := range code {
		idx := i
		code[i].reads(func(r int32) { lastUse[r] = idx })
	}
	for _, o := range p.Outputs {
		if vals[o].kind == valReg {
			lastUse[vals[o].reg] = len(code) // live-out: never released
		}
	}

	slotOf := make([]int32, p.NumRegs)
	for i := range slotOf {
		slotOf[i] = -1
	}
	var free []int32
	next := int32(0)
	alloc := func() int32 {
		if n := len(free); n > 0 {
			s := free[n-1]
			free = free[:n-1]
			return s
		}
		s := next
		next++
		return s
	}

	// Inputs occupy the first NumInputs slots; unused ones are free at once.
	next = int32(p.NumInputs)
	for i := 0; i < p.NumInputs; i++ {
		slotOf[i] = int32(i)
	}
	for i := p.NumInputs - 1; i >= 0; i-- {
		if lastUse[i] == never {
			free = append(free, int32(i))
		}
	}

	o := &Optimized{
		NumInputs:  p.NumInputs,
		Code:       make([]OInstr, len(code)),
		ValueBits:  p.ValueBits,
		MaxSupport: p.MaxSupport,
		ZeroSlot:   -1,
		OnesSlot:   -1,
		source:     p,
	}
	for i, in := range code {
		ni := OInstr{Op: in.Op, A: slotOf[in.A], B: slotOf[in.B], Dst: -1}
		if in.Op > OpOnes {
			ni.C = slotOf[in.C]
		}
		// Release operands dying here before assigning the destination so
		// the definition can reuse a just-freed slot (reads happen before
		// the write during evaluation, elementwise in the wide forms).
		released := [3]int32{-1, -1, -1}
		n := 0
		in.reads(func(r int32) {
			if lastUse[r] != i {
				return
			}
			for _, s := range released[:n] {
				if s == slotOf[r] {
					return // operand repeated; release its slot once
				}
			}
			released[n] = slotOf[r]
			n++
			free = append(free, slotOf[r])
		})
		ni.Dst = alloc()
		slotOf[in.Dst] = ni.Dst
		o.Code[i] = ni
	}

	o.Outputs = make([]int32, len(p.Outputs))
	for i, out := range p.Outputs {
		switch vals[out].kind {
		case valZero:
			if o.ZeroSlot < 0 {
				o.ZeroSlot = next
				next++
			}
			o.Outputs[i] = o.ZeroSlot
		case valOnes:
			if o.OnesSlot < 0 {
				o.OnesSlot = next
				next++
			}
			o.Outputs[i] = o.OnesSlot
		default:
			o.Outputs[i] = slotOf[vals[out].reg]
		}
	}
	o.NumSlots = int(next)
	if o.NumSlots < o.NumInputs {
		o.NumSlots = o.NumInputs // degenerate: no code, no outputs
	}
	return o
}

// checkRunArgs panics unless w is a supported width (1 or Width) and the
// buffers match the program shape at it.
func (o *Optimized) checkRunArgs(w int, inputs, slots, out []uint64) {
	if w != 1 && w != Width {
		panic(fmt.Sprintf("bitslice: width %d unsupported: evaluation runs at width 1 or %d", w, Width))
	}
	if len(inputs) != o.NumInputs*w {
		panic(fmt.Sprintf("bitslice: got %d input words, want %d", len(inputs), o.NumInputs*w))
	}
	if len(slots) < o.NumSlots*w {
		panic(fmt.Sprintf("bitslice: slot file has %d words, need %d", len(slots), o.NumSlots*w))
	}
	if len(out) < len(o.Outputs)*w {
		panic(fmt.Sprintf("bitslice: out has %d words, need %d", len(out), len(o.Outputs)*w))
	}
}
