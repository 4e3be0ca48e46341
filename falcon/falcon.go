package falcon

import (
	ifalcon "ctgauss/internal/falcon"
)

// Re-exported types: the internal implementation is the single source of
// truth; this package pins the supported public surface.
type (
	// Params is a Falcon parameter set (N ∈ {256, 512, 1024}).
	Params = ifalcon.Params
	// PrivateKey is an NTRU trapdoor key with its precomputed Falcon tree.
	PrivateKey = ifalcon.PrivateKey
	// PublicKey is h = g·f⁻¹ mod q.
	PublicKey = ifalcon.PublicKey
	// Signature is a salt plus the compressed short vector.
	Signature = ifalcon.Signature
	// Signer signs messages with a chosen Gaussian base sampler.  It is
	// not safe for concurrent use; see SignerPool.
	Signer = ifalcon.Signer
	// SignerPool is a sharded, concurrency-safe set of Signers over one
	// key — the signing analogue of ctgauss.Pool.
	SignerPool = ifalcon.SignerPool
	// BaseSamplerKind selects the Gaussian base sampler variant.
	BaseSamplerKind = ifalcon.BaseSamplerKind
)

// Base sampler variants of the paper's Table 1.
const (
	// BaseBitsliced is the paper's constant-time sampler (this work).
	BaseBitsliced = ifalcon.BaseBitsliced
	// BaseCDT is the binary-search CDT sampler (non constant-time).
	BaseCDT = ifalcon.BaseCDT
	// BaseByteScanCDT is the byte-scanning CDT sampler (non constant-time,
	// fastest baseline).
	BaseByteScanCDT = ifalcon.BaseByteScanCDT
	// BaseLinearCDT is the linear-search constant-time CDT sampler.
	BaseLinearCDT = ifalcon.BaseLinearCDT
	// BaseConvolve routes SamplerZ through the arbitrary-(σ, μ)
	// convolution layer instead of a rejection loop over a fixed base:
	// every ffSampling leaf (σ′, center) is served by the compiled base
	// set with constant-time randomized rounding.
	BaseConvolve = ifalcon.BaseConvolve
)

// Q is the Falcon modulus 12289.
const Q = ifalcon.Q

// ParamsFor returns the parameter set for ring degree n.
func ParamsFor(n int) (Params, error) { return ifalcon.ParamsFor(n) }

// Keygen generates a key pair for ring degree n ∈ {256, 512, 1024},
// deterministically from seed.
func Keygen(n int, seed []byte) (*PrivateKey, error) { return ifalcon.Keygen(n, seed) }

// NewSigner builds a signer using the selected base sampler, seeded
// deterministically.  The result is not safe for concurrent use.
func NewSigner(sk *PrivateKey, kind BaseSamplerKind, seed []byte) (*Signer, error) {
	return ifalcon.NewSignerWithKind(sk, kind, seed)
}

// NewSignerPool builds a concurrency-safe pool of parallelism signer
// shards over sk (0 = one per CPU).  Shard seeds derive from seed with
// domain separation, so one master seed yields independent signing
// streams; Sign takes whichever signer is idle (sequential calls visit
// them round-robin) and Verify is stateless.
// Close gates the pool at drain time: later Sign calls fail with
// ErrPoolClosed.
func NewSignerPool(sk *PrivateKey, kind BaseSamplerKind, seed []byte, parallelism int) (*SignerPool, error) {
	return ifalcon.NewSignerPool(sk, kind, seed, parallelism)
}

// ErrPoolClosed is returned by SignerPool.Sign after Close.
var ErrPoolClosed = ifalcon.ErrPoolClosed

// DecodeSignature parses Signature.Encode output.
func DecodeSignature(data []byte) (*Signature, error) { return ifalcon.DecodeSignature(data) }

// DecodePublic parses PublicKey.EncodePublic output.
func DecodePublic(data []byte) (*PublicKey, error) { return ifalcon.DecodePublic(data) }
