package bitslice

import (
	"fmt"
	"strings"
)

// EmitGo renders the program as a standalone Go source file containing a
// single function that maps packed random-bit words to packed sample-bit
// words.  This is the reproduction of the paper's published generator tool
// (https://github.com/Angshumank/const_gauss_split emitted C; we emit Go).
func (p *Program) EmitGo(pkg, funcName string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "// Code generated by ctgauss gaussgen; DO NOT EDIT.\n\n")
	fmt.Fprintf(&b, "package %s\n\n", pkg)
	fmt.Fprintf(&b, "// %s evaluates the constant-time bitsliced discrete Gaussian\n", funcName)
	fmt.Fprintf(&b, "// sampler circuit: in holds %d packed random-bit words (64 lanes),\n", p.NumInputs)
	fmt.Fprintf(&b, "// out receives %d packed sample-bit words (LSB first).\n", len(p.Outputs))
	fmt.Fprintf(&b, "func %s(in, out []uint64) {\n", funcName)
	fmt.Fprintf(&b, "\t_ = in[%d]\n", p.NumInputs-1)
	fmt.Fprintf(&b, "\t_ = out[%d]\n", len(p.Outputs)-1)
	reg := func(i int) string {
		if i < p.NumInputs {
			return fmt.Sprintf("in[%d]", i)
		}
		return fmt.Sprintf("r%d", i)
	}
	// Dead-code elimination: only emit instructions reachable from the
	// outputs, so the generated Go never declares unused variables.
	live := make([]bool, p.NumRegs)
	for _, r := range p.Outputs {
		live[r] = true
	}
	for i := len(p.Code) - 1; i >= 0; i-- {
		in := p.Code[i]
		if !live[in.Dst] {
			continue
		}
		if in.Op != OpZero && in.Op != OpOnes {
			live[in.A] = true
			live[in.B] = true
		}
	}
	for _, in := range p.Code {
		if !live[in.Dst] {
			continue
		}
		switch in.Op {
		case OpAnd:
			fmt.Fprintf(&b, "\tr%d := %s & %s\n", in.Dst, reg(in.A), reg(in.B))
		case OpOr:
			fmt.Fprintf(&b, "\tr%d := %s | %s\n", in.Dst, reg(in.A), reg(in.B))
		case OpXor:
			fmt.Fprintf(&b, "\tr%d := %s ^ %s\n", in.Dst, reg(in.A), reg(in.B))
		case OpNot:
			fmt.Fprintf(&b, "\tr%d := ^%s\n", in.Dst, reg(in.A))
		case OpAndNot:
			fmt.Fprintf(&b, "\tr%d := %s &^ %s\n", in.Dst, reg(in.A), reg(in.B))
		case OpZero:
			fmt.Fprintf(&b, "\tr%d := uint64(0)\n", in.Dst)
		case OpOnes:
			fmt.Fprintf(&b, "\tr%d := ^uint64(0)\n", in.Dst)
		}
	}
	for i, r := range p.Outputs {
		fmt.Fprintf(&b, "\tout[%d] = %s\n", i, reg(r))
	}
	fmt.Fprintf(&b, "}\n")
	return b.String()
}

// EmitGoFile renders EmitGo's function followed by two constants giving
// its shape, funcName+"Inputs" and funcName+"ValueBits".  It is the
// format of the checked-in circuits in internal/sampler/gen: their
// generator writes it, and the package's test requires the files to
// equal it byte for byte.
func (p *Program) EmitGoFile(pkg, funcName string) string {
	return p.EmitGo(pkg, funcName) + fmt.Sprintf(
		"\n// %[1]sInputs is the number of packed input words %[1]s consumes.\nconst %[1]sInputs = %[2]d\n"+
			"\n// %[1]sValueBits is the number of output magnitude bits.\nconst %[1]sValueBits = %[3]d\n",
		funcName, p.NumInputs, p.ValueBits)
}
