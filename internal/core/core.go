// Package core implements the paper's primary contribution: the generic
// pipeline (Fig. 4) that instantiates a constant-time bitsliced discrete
// Gaussian sampler for an arbitrary standard deviation and precision.
//
// Stages, mirroring the flowchart:
//
//  1. compute the n-bit probability matrix of D_σ (internal/gaussian),
//  2. unroll the DDG tree and enumerate the list L of sample-generating
//     random bit strings x^i (0/1)^j 0 1^k (internal/ddg),
//  3. sort L by k and split into sublists l_κ; build the Δ-variable truth
//     table of every output bit of every sublist,
//  4. minimize each f^{ι,κ}_Δ exactly (Quine-McCluskey + Petrick, the
//     stand-in for Espresso -Dso -S1),
//  5. stitch the minimized functions with the constant-time mux chain of
//     Eqn 2 and compile to a straight-line bitsliced program.
//
// BuildSimple provides the prior-work baseline [21]: one full-width cube
// per DDG leaf, naively merged, compiled to a flat two-level program with
// no prefix sharing.
package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"ctgauss/internal/bitslice"
	"ctgauss/internal/boolmin"
	"ctgauss/internal/ddg"
	"ctgauss/internal/gaussian"
	"ctgauss/internal/prng"
	"ctgauss/internal/sampler"
)

// Minimizer selects the per-sublist two-level minimization strategy.
type Minimizer int

// Minimization strategies.
const (
	// MinimizeExact uses Quine-McCluskey prime implicants with Petrick's
	// exact cover — the analogue of the paper's Espresso -Dso -S1.
	MinimizeExact Minimizer = iota
	// MinimizeGreedy uses greedy prime-implicant cover (ablation point).
	MinimizeGreedy
	// MinimizeNone keeps one cube per leaf (ablation point; still correct).
	MinimizeNone
)

func (m Minimizer) String() string {
	switch m {
	case MinimizeExact:
		return "exact"
	case MinimizeGreedy:
		return "greedy"
	case MinimizeNone:
		return "none"
	}
	return "?"
}

// Config describes the sampler to build.
type Config struct {
	Sigma   string  // decimal standard deviation, e.g. "2" or "6.15543"
	N       int     // precision bits (the paper's Falcon runs use 128)
	TailCut float64 // τ (the paper's Falcon runs use 13)
	Min     Minimizer
	// Workers bounds the goroutines used for the per-sublist Boolean
	// minimization: 0 means runtime.NumCPU(), 1 forces the serial path.
	// It affects build time only, never the built artefact.
	Workers int
}

// DefaultConfig returns the paper's Falcon-experiment configuration for a
// given σ.
func DefaultConfig(sigma string) Config {
	return Config{Sigma: sigma, N: 128, TailCut: gaussian.DefaultTailCut, Min: MinimizeExact}
}

// Built is a fully-instantiated constant-time sampler plus every
// intermediate artefact, so tools and tests can inspect the pipeline.
type Built struct {
	Config   Config
	Table    *gaussian.Table
	Tree     *ddg.Tree
	Sublists []bitslice.SublistFuncs
	Program  *bitslice.Program
	// Stats
	LeafCount    int
	SublistCount int
	TotalCubes   int
	TotalLits    int

	optOnce sync.Once
	opt     *bitslice.Optimized
}

// Build runs the full pipeline of Fig. 4.
func Build(cfg Config) (*Built, error) {
	params, err := gaussian.NewParams(cfg.Sigma, cfg.N, cfg.TailCut)
	if err != nil {
		return nil, err
	}
	table, err := gaussian.NewTable(params)
	if err != nil {
		return nil, err
	}
	tree, err := ddg.Unroll(table)
	if err != nil {
		return nil, err
	}
	if err := tree.VerifyTheorem1(); err != nil {
		return nil, err
	}
	valueBits := tree.MaxValueBits()
	subs, err := MinimizeSublistsWorkers(tree, cfg.Min, cfg.Workers)
	if err != nil {
		return nil, err
	}
	prog, err := bitslice.CompileMux(subs, tree.Delta, valueBits, table.Support)
	if err != nil {
		return nil, err
	}
	b := &Built{
		Config:   cfg,
		Table:    table,
		Tree:     tree,
		Sublists: subs,
		Program:  prog,
	}
	b.LeafCount = len(tree.Leaves)
	b.SublistCount = len(subs)
	for _, s := range subs {
		for _, f := range s.SOPs {
			b.TotalCubes += len(f.Cubes)
			b.TotalLits += f.Literals()
		}
	}
	return b, nil
}

// MinimizeSublistsWorkers converts every sublist l_κ into minimized
// per-bit Boolean functions f^{ι,κ}_Δ over the Δ payload variables on up
// to workers goroutines (0 = runtime.NumCPU(), 1 = serial).  Each
// f^{ι,κ}_Δ is an independent two-level minimization, so the (sublist,
// bit) grid fans out across workers; results are merged into
// position-indexed slices, so the output is identical to the serial path
// regardless of scheduling.
func MinimizeSublistsWorkers(tree *ddg.Tree, min Minimizer, workers int) ([]bitslice.SublistFuncs, error) {
	if min != MinimizeExact && min != MinimizeGreedy && min != MinimizeNone {
		return nil, fmt.Errorf("core: unknown minimizer %d", min)
	}
	delta := tree.Delta
	valueBits := tree.MaxValueBits()
	subs := tree.Sublists()
	out := make([]bitslice.SublistFuncs, len(subs))
	values := make([][]int, len(subs))
	for i, sub := range subs {
		v, err := sublistValueTable(sub, delta)
		if err != nil {
			return nil, err
		}
		values[i] = v
		out[i] = bitslice.SublistFuncs{K: sub.K, SOPs: make([]boolmin.SOP, valueBits)}
	}

	type job struct{ si, bit int }
	jobs := make([]job, 0, len(subs)*valueBits)
	for si := range subs {
		for bit := 0; bit < valueBits; bit++ {
			jobs = append(jobs, job{si, bit})
		}
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers < 1 {
		workers = 1
	}

	errs := make([]error, len(jobs))
	run := func(j job) error {
		tt := boolmin.NewTruthTable(delta)
		for a, v := range values[j.si] {
			switch {
			case v < 0:
				tt.Out[a] = boolmin.DC
			case v>>uint(j.bit)&1 == 1:
				tt.Out[a] = boolmin.One
			default:
				tt.Out[a] = boolmin.Zero
			}
		}
		var sop boolmin.SOP
		switch min {
		case MinimizeExact:
			sop = boolmin.MinimizeExact(tt)
		case MinimizeGreedy:
			sop = boolmin.MinimizeGreedy(tt)
		case MinimizeNone:
			sop = rawSOP(tt)
		}
		if !tt.Equivalent(sop) {
			return fmt.Errorf("core: minimized SOP diverges from truth table (sublist κ=%d bit %d)", subs[j.si].K, j.bit)
		}
		out[j.si].SOPs[j.bit] = sop
		return nil
	}
	// A failure dooms the whole build, so remaining jobs abort early
	// rather than grinding through the rest of the minimization grid.
	var failed atomic.Bool
	if workers == 1 {
		for ji, j := range jobs {
			if errs[ji] = run(j); errs[ji] != nil {
				break
			}
		}
	} else {
		next := make(chan int)
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for ji := range next {
					if failed.Load() {
						continue
					}
					if errs[ji] = run(jobs[ji]); errs[ji] != nil {
						failed.Store(true)
					}
				}
			}()
		}
		for ji := range jobs {
			next <- ji
		}
		close(next)
		wg.Wait()
	}
	// Report the lowest-indexed recorded error so the serial path is
	// fully deterministic (parallel runs may abort at different points).
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// sublistValueTable enumerates the 2^Δ payload assignments of a sublist:
// value ≥ 0 where a leaf determines the sample, -1 (don't-care) where the
// walk falls off the truncated tree.
func sublistValueTable(sub ddg.Sublist, delta int) ([]int, error) {
	size := 1 << uint(delta)
	values := make([]int, size)
	for i := range values {
		values[i] = -1
	}
	for _, lf := range sub.Leaves {
		payload := lf.Path[lf.K+1:]
		if len(payload) != lf.J {
			return nil, fmt.Errorf("core: leaf payload length %d != J %d", len(payload), lf.J)
		}
		var base uint64
		for v, b := range payload {
			if b == 1 {
				base |= 1 << uint(v)
			}
		}
		free := delta - lf.J
		for ext := 0; ext < 1<<uint(free); ext++ {
			a := base | uint64(ext)<<uint(lf.J)
			if values[a] >= 0 && values[a] != lf.Value {
				return nil, fmt.Errorf("core: conflicting sublist assignments (κ=%d)", sub.K)
			}
			values[a] = lf.Value
		}
	}
	return values, nil
}

// rawSOP emits one full cube per ON minterm (no minimization): the
// MinimizeNone ablation.
func rawSOP(tt *boolmin.TruthTable) boolmin.SOP {
	full := uint64(1)<<uint(tt.NVars) - 1
	var cubes []boolmin.Cube
	for _, m := range tt.Minterms(boolmin.One) {
		cubes = append(cubes, boolmin.Cube{Value: m, Mask: full})
	}
	return boolmin.SOP{NVars: tt.NVars, Cubes: cubes}
}

// Optimized returns the register-allocated evaluation form of the built
// circuit, compiled once and shared by every sampler instance.
func (b *Built) Optimized() *bitslice.Optimized {
	b.optOnce.Do(func() { b.opt = bitslice.Optimize(b.Program) })
	return b.opt
}

// NewWideSampler instantiates a constant-time sampler over the built
// program with its own PRNG state, at evaluation width w: 1 (the paper's
// per-batch form) or bitslice.Width (the serving width).  The stream
// layout depends on w and on nothing about the host.
func (b *Built) NewWideSampler(src prng.Source, w int) *sampler.Bitsliced {
	return sampler.NewBitslicedWidth(fmt.Sprintf("bitsliced-wide%d(%s)", w, b.Config.Sigma), b.Optimized(), src, w)
}

// BuiltSimple is the [21]-baseline artefact set.
type BuiltSimple struct {
	Config  Config
	Table   *gaussian.Table
	Tree    *ddg.Tree
	Program *bitslice.Program
	// CubesBefore/After record the naive-merge effectiveness.
	CubesBefore, CubesAfter int

	optOnce sync.Once
	opt     *bitslice.Optimized
}

// Optimized returns the register-allocated evaluation form of the
// baseline circuit, compiled once — worthwhile here especially, since the
// flat two-level programs run to ~10⁵ instructions.
func (b *BuiltSimple) Optimized() *bitslice.Optimized {
	b.optOnce.Do(func() { b.opt = bitslice.Optimize(b.Program) })
	return b.opt
}

// BuildSimple reproduces the prior work's flow: Boolean functions over the
// full n input bits (one cube per leaf), simplified only by naive
// distance-1 merging, evaluated as a flat two-level program without
// cross-term sharing.
func BuildSimple(cfg Config) (*BuiltSimple, error) { return buildSimple(cfg, false) }

// BuildSimpleCSE is the ablation variant of BuildSimple where the flat
// program may share sub-products across terms.
func BuildSimpleCSE(cfg Config) (*BuiltSimple, error) { return buildSimple(cfg, true) }

func buildSimple(cfg Config, cse bool) (*BuiltSimple, error) {
	params, err := gaussian.NewParams(cfg.Sigma, cfg.N, cfg.TailCut)
	if err != nil {
		return nil, err
	}
	table, err := gaussian.NewTable(params)
	if err != nil {
		return nil, err
	}
	tree, err := ddg.Unroll(table)
	if err != nil {
		return nil, err
	}
	valueBits := tree.MaxValueBits()
	numInputs := 0
	for _, lf := range tree.Leaves {
		if len(lf.Path) > numInputs {
			numInputs = len(lf.Path)
		}
	}
	perBit := make([][]boolmin.WideCube, valueBits)
	before := 0
	for bit := 0; bit < valueBits; bit++ {
		var cubes []boolmin.WideCube
		for _, lf := range tree.Leaves {
			if lf.Value>>uint(bit)&1 == 0 {
				continue
			}
			c := boolmin.NewWideCube(numInputs)
			for i, pb := range lf.Path {
				c.SetLiteral(i, pb)
			}
			cubes = append(cubes, c)
		}
		before += len(cubes)
		perBit[bit] = boolmin.SimplifyWide(cubes)
	}
	after := 0
	for _, cs := range perBit {
		after += len(cs)
	}
	prog, err := bitslice.CompileFlat(perBit, numInputs, valueBits, table.Support, cse)
	if err != nil {
		return nil, err
	}
	return &BuiltSimple{
		Config: cfg, Table: table, Tree: tree, Program: prog,
		CubesBefore: before, CubesAfter: after,
	}, nil
}

// NewWideSampler instantiates the baseline sampler at evaluation width w.
func (b *BuiltSimple) NewWideSampler(src prng.Source, w int) *sampler.Bitsliced {
	return sampler.NewBitslicedWidth(fmt.Sprintf("bitsliced-simple%d(%s)", w, b.Config.Sigma), b.Optimized(), src, w)
}
