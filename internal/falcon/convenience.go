package falcon

import (
	"crypto/sha256"
	"fmt"

	"ctgauss/internal/bitslice"
	"ctgauss/internal/convolve"
	"ctgauss/internal/core"
	"ctgauss/internal/gaussian"
	"ctgauss/internal/prng"
	"ctgauss/internal/registry"
	"ctgauss/internal/sampler"
	"ctgauss/internal/sampler/gen"
)

// Keygen generates a key pair for ring degree n, deterministically from
// seed, using the repo's own bitsliced constant-time sampler for the f, g
// coefficients.  The σ_fg circuit comes from the process-wide registry
// (and its disk cache, when one is configured).
func Keygen(n int, seed []byte) (*PrivateKey, error) {
	params, err := ParamsFor(n)
	if err != nil {
		return nil, err
	}
	art, err := registry.Shared().Get(core.Config{
		Sigma:   fmt.Sprintf("%.5f", params.SigmaFG),
		N:       64,
		TailCut: 13,
		Min:     core.MinimizeExact,
	})
	if err != nil {
		return nil, err
	}
	src, err := prng.NewChaCha20(seed)
	if err != nil {
		return nil, err
	}
	return GenerateKey(params, art.NewWideSampler(src, bitslice.Width))
}

// BaseSamplerKind selects the Table-1 base sampler variant, or the
// convolution-layer SamplerZ routing.
type BaseSamplerKind int

// The four base samplers of Table 1, plus the convolution routing.
const (
	BaseBitsliced   BaseSamplerKind = iota // this work (constant-time)
	BaseCDT                                // binary-search CDT [26]
	BaseByteScanCDT                        // byte-scanning CDT [13]
	BaseLinearCDT                          // linear-search constant-time CDT [7]
	// BaseConvolve routes SamplerZ through the arbitrary-(σ, μ)
	// convolution layer (internal/convolve): every ffSampling leaf is
	// served by the compiled base set with constant-time randomized
	// rounding instead of the float-rejection loop — the serve-anything
	// flag of the signing stack.
	BaseConvolve
)

func (k BaseSamplerKind) String() string {
	switch k {
	case BaseBitsliced:
		return "bitsliced (this work)"
	case BaseCDT:
		return "CDT"
	case BaseByteScanCDT:
		return "byte-scanning CDT"
	case BaseLinearCDT:
		return "linear-search CDT"
	case BaseConvolve:
		return "convolution layer"
	}
	return "?"
}

// NewBaseSampler instantiates one of the Table-1 base samplers at the
// paper's configuration (σ=2, n=128, τ=13) over a ChaCha20 stream.
func NewBaseSampler(kind BaseSamplerKind, seed []byte) (sampler.Sampler, error) {
	src, err := prng.NewChaCha20(seed)
	if err != nil {
		return nil, err
	}
	if kind == BaseBitsliced {
		// Production form: the generated, compiled circuit (the paper's
		// tool output), not the instruction interpreter.
		return sampler.NewCompiled("bitsliced-compiled(2)",
			gen.Sigma2Batch, gen.Sigma2BatchInputs, gen.Sigma2BatchValueBits, src), nil
	}
	// The CDT baselines read the probability table, not a circuit.
	params, err := gaussian.NewParams("2", 128, 13)
	if err != nil {
		return nil, err
	}
	table, err := gaussian.NewTable(params)
	if err != nil {
		return nil, err
	}
	switch kind {
	case BaseCDT:
		return sampler.NewCDT(table, src), nil
	case BaseByteScanCDT:
		return sampler.NewByteScanCDT(table, src), nil
	case BaseLinearCDT:
		return sampler.NewLinearCDT(table, src), nil
	default:
		return nil, fmt.Errorf("falcon: unknown base sampler %d", kind)
	}
}

// NewSignerWithKind wires a signer with the chosen Table-1 base sampler,
// or — for BaseConvolve — with SamplerZ routed through the convolution
// layer over the σ=2 base circuit.
func NewSignerWithKind(sk *PrivateKey, kind BaseSamplerKind, seed []byte) (*Signer, error) {
	saltSeed := append([]byte("salt:"), seed...)
	if len(saltSeed) > 32 {
		// ChaCha20 seeds are capped at 32 bytes; longer derived seeds
		// (e.g. SignerPool's 32-byte shard digests) compress through
		// SHA-256, keeping the salt stream domain-separated from the
		// base-sampler stream.
		sum := sha256.Sum256(saltSeed)
		saltSeed = sum[:]
	}
	src, err := prng.NewChaCha20(saltSeed)
	if err != nil {
		return nil, err
	}
	if kind == BaseConvolve {
		// ffSampling leaf σ' never exceeds SigmaMax < 2, so the σ=2
		// circuit alone is the whole base set (every plan is the
		// single-draw leaf); one shard, because a Signer is
		// single-threaded and SignerPool builds one sampler per shard.
		// Refills run synchronously, so the signer owns no goroutine.
		// Signing stays on ChaCha20, the Falcon reference PRNG, rather
		// than the serving default.
		conv, err := convolve.New(convolve.Config{
			Bases:    []string{"2"},
			Shards:   1,
			Seed:     seed,
			PRNG:     "chacha20",
			Prefetch: -1,
		})
		if err != nil {
			return nil, err
		}
		return newSignerWithZ(sk, &convolveZ{conv: conv}, prng.NewBitReader(src))
	}
	base, err := NewBaseSampler(kind, seed)
	if err != nil {
		return nil, err
	}
	return NewSigner(sk, base, src)
}
