package falcon

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"ctgauss/internal/prng"
)

var keyCache = map[int]*PrivateKey{}

func testKey(t *testing.T, n int) *PrivateKey {
	t.Helper()
	if sk, ok := keyCache[n]; ok {
		return sk
	}
	sk, err := Keygen(n, []byte("falcon-test-seed"))
	if err != nil {
		t.Fatal(err)
	}
	keyCache[n] = sk
	return sk
}

func TestParams(t *testing.T) {
	p512, err := ParamsFor(512)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p512.Sigma-165.7) > 1.5 {
		t.Fatalf("σ(512) = %.2f, want ≈ 165.7 (spec)", p512.Sigma)
	}
	if p512.BoundSq < 30e6 || p512.BoundSq > 40e6 {
		t.Fatalf("β²(512) = %d, want ≈ 34M (spec)", p512.BoundSq)
	}
	if p512.SigmaMin < 1.2 || p512.SigmaMin > 1.4 {
		t.Fatalf("σmin = %.4f", p512.SigmaMin)
	}
	if _, err := ParamsFor(100); err == nil {
		t.Fatal("expected error for bad degree")
	}
	for _, n := range []int{256, 512, 1024} {
		p, err := ParamsFor(n)
		if err != nil {
			t.Fatal(err)
		}
		if p.SigmaFG <= 0 || p.Level == 0 {
			t.Fatalf("bad params for %d: %+v", n, p)
		}
	}
}

func TestKeygenAndCheckKey(t *testing.T) {
	sk := testKey(t, 256)
	if err := sk.CheckKey(); err != nil {
		t.Fatal(err)
	}
	if len(sk.H) != 256 {
		t.Fatalf("h has %d coefficients", len(sk.H))
	}
}

func TestTreeLeafSigmasWithinBaseRange(t *testing.T) {
	sk := testKey(t, 256)
	sigmas := sk.tree.leafSigmas(nil)
	if len(sigmas) != 2*256 {
		t.Fatalf("got %d leaves, want %d", len(sigmas), 2*256)
	}
	for _, s := range sigmas {
		if s <= 0 || s > SigmaBase {
			t.Fatalf("leaf σ' = %f outside (0, %g]", s, SigmaBase)
		}
		if s < sk.Params.SigmaMin*0.9 {
			t.Fatalf("leaf σ' = %f below σmin %f", s, sk.Params.SigmaMin)
		}
	}
}

func TestSignVerifyRoundTrip(t *testing.T) {
	sk := testKey(t, 256)
	signer, err := NewSignerWithKind(sk, BaseBitsliced, []byte("sign-seed"))
	if err != nil {
		t.Fatal(err)
	}
	pk := sk.Public()
	msg := []byte("the quick brown fox")
	for i := 0; i < 8; i++ {
		sig, err := signer.Sign(msg)
		if err != nil {
			t.Fatal(err)
		}
		if err := pk.Verify(msg, sig); err != nil {
			t.Fatalf("valid signature rejected: %v", err)
		}
	}
}

func TestSignVerifyAllBaseSamplers(t *testing.T) {
	sk := testKey(t, 256)
	pk := sk.Public()
	msg := []byte("table-1 parity")
	for _, kind := range []BaseSamplerKind{BaseBitsliced, BaseCDT, BaseByteScanCDT, BaseLinearCDT} {
		signer, err := NewSignerWithKind(sk, kind, []byte("k"))
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		sig, err := signer.Sign(msg)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if err := pk.Verify(msg, sig); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if kind.String() == "?" {
			t.Fatal("unnamed kind")
		}
	}
}

// TestSignVerifyConvolveKind routes SamplerZ through the convolution
// layer: signatures must verify, the acceptance ledger must live on the
// layer (no rejection-base sampler exists), and the leaf requests must
// all have been served by single-draw plans of the σ=2 base.
func TestSignVerifyConvolveKind(t *testing.T) {
	sk := testKey(t, 256)
	pk := sk.Public()
	signer, err := NewSignerWithKind(sk, BaseConvolve, []byte("convolve-signer"))
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("serve-anything signing")
	for i := 0; i < 4; i++ {
		sig, err := signer.Sign(msg)
		if err != nil {
			t.Fatal(err)
		}
		if err := pk.Verify(msg, sig); err != nil {
			t.Fatalf("convolve-backed signature rejected: %v", err)
		}
	}
	if signer.BaseSampler() != nil {
		t.Fatal("convolve-backed signer should not expose a rejection base sampler")
	}
	if signer.SampleStats() == "no samples" {
		t.Fatal("acceptance ledger did not accumulate")
	}
	zs := signer.zs.(*convolveZ)
	st := zs.conv.Stats()
	if st.Trials == 0 || st.Accepted == 0 {
		t.Fatalf("convolution layer saw no trials: %+v", st)
	}
	for _, sigma := range []float64{sk.Params.SigmaMin, SigmaMax} {
		plan, err := zs.conv.Plan(sigma)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Draws() != 1 || plan.SigmaP != 2 {
			t.Fatalf("leaf σ'=%g should be served by the σ=2 base alone, got %+v", sigma, plan)
		}
	}
}

// TestSignerPoolConvolveKind: the sharded signing pool must accept the
// convolution routing too (ctgaussd -falcon-kind convolve).
func TestSignerPoolConvolveKind(t *testing.T) {
	sk := testKey(t, 256)
	pool, err := NewSignerPool(sk, BaseConvolve, []byte("convolve-pool"), 2)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("pooled convolve signing")
	sig, err := pool.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.Verify(msg, sig); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyRejectsTamperedMessage(t *testing.T) {
	sk := testKey(t, 256)
	signer, _ := NewSignerWithKind(sk, BaseBitsliced, []byte("t"))
	pk := sk.Public()
	sig, err := signer.Sign([]byte("original"))
	if err != nil {
		t.Fatal(err)
	}
	if err := pk.Verify([]byte("tampered"), sig); err == nil {
		t.Fatal("tampered message accepted")
	}
}

func TestVerifyRejectsTamperedSignature(t *testing.T) {
	sk := testKey(t, 256)
	signer, _ := NewSignerWithKind(sk, BaseBitsliced, []byte("t2"))
	pk := sk.Public()
	msg := []byte("msg")
	sig, err := signer.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	sig.S1[0] += 3000
	if err := pk.Verify(msg, sig); err == nil {
		t.Fatal("tampered signature accepted")
	}
	sig.S1[0] -= 3000
	sig.Salt[0] ^= 1
	if err := pk.Verify(msg, sig); err == nil {
		t.Fatal("tampered salt accepted")
	}
}

func TestVerifyRejectsMalformed(t *testing.T) {
	pk := testKey(t, 256).Public()
	if err := pk.Verify([]byte("m"), nil); err == nil {
		t.Fatal("nil signature accepted")
	}
	if err := pk.Verify([]byte("m"), &Signature{Salt: make([]byte, SaltLen), S1: make([]int16, 8)}); err == nil {
		t.Fatal("short signature accepted")
	}
	if err := pk.Verify([]byte("m"), &Signature{Salt: make([]byte, SaltLen), S1: make([]int16, 256)}); err == nil {
		t.Fatal("zero signature accepted")
	}
}

func TestSignatureCodecRoundTrip(t *testing.T) {
	sk := testKey(t, 256)
	signer, _ := NewSignerWithKind(sk, BaseBitsliced, []byte("codec"))
	sig, err := signer.Sign([]byte("encode me"))
	if err != nil {
		t.Fatal(err)
	}
	enc := sig.Encode()
	dec, err := DecodeSignature(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec.Salt, sig.Salt) {
		t.Fatal("salt mismatch")
	}
	for i := range sig.S1 {
		if dec.S1[i] != sig.S1[i] {
			t.Fatalf("coefficient %d mismatch", i)
		}
	}
	if err := sk.Public().Verify([]byte("encode me"), dec); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSignature(enc[:10]); err == nil {
		t.Fatal("truncated signature decoded")
	}
}

// payloadBits is the bit length of compressCoeffs(cs): per coefficient
// a sign bit, 7 low bits, the unary high part and its terminator.
func payloadBits(cs []int16) int {
	bits := 0
	for _, c := range cs {
		v := int(c)
		if v < 0 {
			v = -v
		}
		bits += 9 + v>>7
	}
	return bits
}

// malleate returns two re-encodings of enc that a decoder ignoring the
// payload's tail would accept: one byte appended with the length field
// bumped to cover it, and the last byte's lowest bit set (an unused
// padding bit when the payload does not end on a byte boundary).
func malleate(enc []byte) map[string][]byte {
	appended := append(append([]byte(nil), enc...), 0)
	binary.BigEndian.PutUint16(appended[SaltLen+2:], binary.BigEndian.Uint16(enc[SaltLen+2:])+1)
	padded := append([]byte(nil), enc...)
	padded[len(padded)-1] |= 1
	return map[string][]byte{"trailing byte": appended, "padding bit": padded}
}

// TestDecodeSignatureRejectsMalleable pins canonical decoding: a valid
// signature with a byte appended, or with a padding bit set, is a
// different byte string and must not decode to a signature that
// verifies.
func TestDecodeSignatureRejectsMalleable(t *testing.T) {
	sk := testKey(t, 256)
	signer, _ := NewSignerWithKind(sk, BaseBitsliced, []byte("malleable"))
	var msg []byte
	var sig *Signature
	for i := 0; sig == nil || payloadBits(sig.S1)%8 == 0; i++ {
		msg = []byte(fmt.Sprintf("message %d", i))
		var err error
		if sig, err = signer.Sign(msg); err != nil {
			t.Fatal(err)
		}
	}
	enc := sig.Encode()
	if dec, err := DecodeSignature(enc); err != nil || sk.Public().Verify(msg, dec) != nil {
		t.Fatalf("genuine signature: decode %v", err)
	}
	for name, m := range malleate(enc) {
		if _, err := DecodeSignature(m); err == nil {
			t.Errorf("%s: malleated signature decoded", name)
		}
	}
}

func TestPublicKeyCodecRoundTrip(t *testing.T) {
	pk := testKey(t, 256).Public()
	enc := pk.EncodePublic()
	dec, err := DecodePublic(enc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pk.H {
		if dec.H[i] != pk.H[i] {
			t.Fatalf("coefficient %d mismatch", i)
		}
	}
	if _, err := DecodePublic(enc[:5]); err == nil {
		t.Fatal("truncated key decoded")
	}
	if _, err := DecodePublic(nil); err == nil {
		t.Fatal("empty key decoded")
	}
}

func TestCompressCoeffsRoundTripEdgeValues(t *testing.T) {
	cs := []int16{0, 1, -1, 127, -127, 128, -128, 2047, -2047, 300, -300}
	dec, err := decompressCoeffs(compressCoeffs(cs), len(cs))
	if err != nil {
		t.Fatal(err)
	}
	for i := range cs {
		if dec[i] != cs[i] {
			t.Fatalf("coeff %d: %d != %d", i, dec[i], cs[i])
		}
	}
}

func TestHashToPointRangeAndDeterminism(t *testing.T) {
	c1 := hashToPoint([]byte("salt"), []byte("msg"), 512)
	c2 := hashToPoint([]byte("salt"), []byte("msg"), 512)
	for i := range c1 {
		if c1[i] >= Q {
			t.Fatalf("coefficient %d out of range", i)
		}
		if c1[i] != c2[i] {
			t.Fatal("hashToPoint not deterministic")
		}
	}
	c3 := hashToPoint([]byte("salt2"), []byte("msg"), 512)
	same := 0
	for i := range c1 {
		if c1[i] == c3[i] {
			same++
		}
	}
	if same > 20 {
		t.Fatalf("different salts agree on %d of 512 coefficients", same)
	}
}

// TestHashToPointPinned pins HashToPoint's output at every ring degree:
// SHA-256 over the coefficients as big-endian 16-bit words.  The digests
// come from an independent implementation that squeezed two bytes at a
// time from a hand-written sponge, so they check that block-wise
// squeezing consumes the same bytes in the same order.
func TestHashToPointPinned(t *testing.T) {
	want := map[int]string{
		256:  "4f0fb47e20530616c83e26411ddc6c1fe51ea3255b6d22958d8c07977c3d32b6",
		512:  "5a216d91cbcff80277b230d37897f3f1200c7514efb1120191948daa30fbe052",
		1024: "971c67580025ec7147a41868acfdcdcc60d4798a9fe5eb4ce05ce8fbde2522cd",
	}
	for n, digest := range want {
		h := sha256.New()
		for _, c := range hashToPoint([]byte("salt"), []byte("message"), n) {
			h.Write([]byte{byte(c >> 8), byte(c)})
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != digest {
			t.Errorf("n=%d: hashToPoint digest %s, want %s", n, got, digest)
		}
	}
}

func TestSamplerZStatistics(t *testing.T) {
	base, err := NewBaseSampler(BaseBitsliced, []byte("zstat"))
	if err != nil {
		t.Fatal(err)
	}
	bits := prng.NewBitReader(prng.MustChaCha20([]byte("zbits")))
	p512, err := ParamsFor(512)
	if err != nil {
		t.Fatal(err)
	}
	zs := newSamplerZ(base, bits, p512.SigmaMin)
	for _, cfg := range []struct{ mu, sigma float64 }{
		{0, 1.5}, {0.5, 1.3}, {-3.7, 1.8}, {100.25, 1.7},
	} {
		var sum, sq float64
		const nSamples = 20000
		for i := 0; i < nSamples; i++ {
			z := zs.sample(cfg.mu, cfg.sigma)
			sum += z
			sq += z * z
		}
		mean := sum / nSamples
		variance := sq/nSamples - mean*mean
		if math.Abs(mean-cfg.mu) > 0.08 {
			t.Errorf("μ=%v σ=%v: mean %.4f", cfg.mu, cfg.sigma, mean)
		}
		if math.Abs(variance-cfg.sigma*cfg.sigma) > 0.25*cfg.sigma*cfg.sigma {
			t.Errorf("μ=%v σ=%v: variance %.4f, want ≈ %.4f",
				cfg.mu, cfg.sigma, variance, cfg.sigma*cfg.sigma)
		}
	}
}

func TestSignatureNormWellBelowBound(t *testing.T) {
	// Statistically the squared norm concentrates near 2N·σ²; the bound is
	// (1.1)² higher. Both signs of margin indicate a healthy sampler.
	sk := testKey(t, 256)
	signer, _ := NewSignerWithKind(sk, BaseBitsliced, []byte("norm"))
	sig, err := signer.Sign([]byte("norm-test"))
	if err != nil {
		t.Fatal(err)
	}
	var n1 int64
	for _, v := range sig.S1 {
		n1 += int64(v) * int64(v)
	}
	expected := float64(256) * sk.Params.Sigma * sk.Params.Sigma // N·σ² for one half
	if float64(n1) > 3*expected || float64(n1) < expected/3 {
		t.Fatalf("‖s1‖² = %d, expected around %.0f", n1, expected)
	}
}

func TestKeygen512(t *testing.T) {
	if testing.Short() {
		t.Skip("slower keygen")
	}
	sk := testKey(t, 512)
	if err := sk.CheckKey(); err != nil {
		t.Fatal(err)
	}
	signer, _ := NewSignerWithKind(sk, BaseBitsliced, []byte("s512"))
	sig, err := signer.Sign([]byte("m512"))
	if err != nil {
		t.Fatal(err)
	}
	if err := sk.Public().Verify([]byte("m512"), sig); err != nil {
		t.Fatal(err)
	}
}

func TestKeygen1024(t *testing.T) {
	if testing.Short() {
		t.Skip("slower keygen")
	}
	sk := testKey(t, 1024)
	if err := sk.CheckKey(); err != nil {
		t.Fatal(err)
	}
	signer, _ := NewSignerWithKind(sk, BaseBitsliced, []byte("s1024"))
	sig, err := signer.Sign([]byte("m1024"))
	if err != nil {
		t.Fatal(err)
	}
	if err := sk.Public().Verify([]byte("m1024"), sig); err != nil {
		t.Fatal(err)
	}
}
