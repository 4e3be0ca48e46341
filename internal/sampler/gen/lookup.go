package gen

// Lookup returns the generated native circuit for σ, or ok=false when the
// generator has not emitted one.  All generated circuits use the paper's
// evaluation configuration (n=128, τ=13, exact minimization); callers must
// not serve them for any other configuration.  Register new circuits here
// (and in TestGeneratedMatchesInterpreted) when cmd/internal/gencircuits
// gains a configuration.
func Lookup(sigma string) (fn func(in, out []uint64), numInputs, valueBits int, ok bool) {
	switch sigma {
	case "2":
		return Sigma2Batch, Sigma2BatchInputs, Sigma2BatchValueBits, true
	case "6.15543":
		return Sigma615543Batch, Sigma615543BatchInputs, Sigma615543BatchValueBits, true
	}
	return nil, 0, 0, false
}

// Sigmas enumerates the σ values with generated native circuits — the
// registry-served configurations tools sweep by default (cmd/ctcheck,
// the acceptance harness).  Keep in step with Lookup.
func Sigmas() []string { return []string{"2", "6.15543"} }
