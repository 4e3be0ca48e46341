package bitslice

import "fmt"

// Size ceilings for deserialized programs, far above any circuit the
// pipeline emits (the flat σ=6.15543 baseline is ~10⁵ instructions), so a
// corrupt cache file cannot force a huge allocation: with these caps a
// sampler's register file stays under ~40 MB.
const (
	maxProgramInputs = 1 << 16
	maxProgramCode   = 1 << 22
)

// Validate checks the structural invariants a well-formed Program upholds
// by construction: SSA register numbering, operand indices that refer only
// to earlier registers, in-range outputs, and sane sizes.  Programs
// deserialized from an external source (the registry's on-disk cache) must
// pass Validate before Run may be called, otherwise corrupt input could
// index registers out of bounds or allocate unboundedly.
func (p *Program) Validate() error {
	if p.NumInputs < 0 || p.NumInputs > maxProgramInputs {
		return fmt.Errorf("bitslice: NumInputs %d outside [0, %d]", p.NumInputs, maxProgramInputs)
	}
	if len(p.Code) > maxProgramCode {
		return fmt.Errorf("bitslice: %d instructions exceeds cap %d", len(p.Code), maxProgramCode)
	}
	// A sampler circuit has at least one magnitude plane: the wide
	// samplers slice one plane per 64-lane block out of the outputs.
	if p.ValueBits < 1 || p.ValueBits > 63 {
		return fmt.Errorf("bitslice: ValueBits %d outside [1, 63]", p.ValueBits)
	}
	if p.NumRegs != p.NumInputs+len(p.Code) {
		return fmt.Errorf("bitslice: NumRegs %d, want NumInputs+len(Code) = %d", p.NumRegs, p.NumInputs+len(p.Code))
	}
	for i, in := range p.Code {
		if in.Op > OpOnes {
			return fmt.Errorf("bitslice: instruction %d has unknown op %d", i, in.Op)
		}
		if in.Dst != p.NumInputs+i {
			return fmt.Errorf("bitslice: instruction %d writes register %d, want %d (SSA order)", i, in.Dst, p.NumInputs+i)
		}
		if in.A < 0 || in.A >= in.Dst || in.B < 0 || in.B >= in.Dst {
			return fmt.Errorf("bitslice: instruction %d reads registers (%d, %d) not before %d", i, in.A, in.B, in.Dst)
		}
	}
	if len(p.Outputs) != p.ValueBits {
		return fmt.Errorf("bitslice: %d outputs, want ValueBits = %d", len(p.Outputs), p.ValueBits)
	}
	for i, r := range p.Outputs {
		if r < 0 || r >= p.NumRegs {
			return fmt.Errorf("bitslice: output %d refers to register %d of %d", i, r, p.NumRegs)
		}
	}
	if p.SignInput < -1 || p.SignInput >= p.NumRegs {
		return fmt.Errorf("bitslice: SignInput %d out of range", p.SignInput)
	}
	if p.MaxSupport < 0 {
		return fmt.Errorf("bitslice: negative MaxSupport %d", p.MaxSupport)
	}
	return nil
}
