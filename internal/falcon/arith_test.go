package falcon

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"testing"
)

// recordingZ hashes the exact bits of every (μ, σ′) a SamplerZ backend
// receives, then passes the request through unchanged.
type recordingZ struct {
	zSampler
	h hash.Hash
}

func (r *recordingZ) sample(mu, sigmaP float64) float64 {
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(mu))
	binary.LittleEndian.PutUint64(b[8:], math.Float64bits(sigmaP))
	r.h.Write(b[:])
	return r.zSampler.sample(mu, sigmaP)
}

func hashComplexBits(h hash.Hash, v []complex128) {
	var b [16]byte
	for _, c := range v {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(real(c)))
		binary.LittleEndian.PutUint64(b[8:], math.Float64bits(imag(c)))
		h.Write(b[:])
	}
}

// TestSignArithmeticPinned pins Sign's floating-point arithmetic bit for
// bit, which TestKnownAnswers cannot: SamplerZ rounds low-bit changes in
// the targets away, so a signature can survive an arithmetic change that
// moves every center it samples around.  The digest covers the bits of
// every (μ, σ′) that ffSampling hands to SamplerZ and, after each
// signature, the workspace's t0 and t1 (s0 and s1 in FFT form, as
// InvFFTTo leaves them), over the known-answer signatures at N = 256.
// The centers catch a change in the target t = (c, 0)·B⁻¹ that the
// rounding to s hides; the workspace catches one in s's FFT forms.
func TestSignArithmeticPinned(t *testing.T) {
	sk := testKey(t, 256)
	signer, err := NewSignerWithKind(sk, BaseBitsliced, []byte(katSignerSeed))
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	signer.zs = &recordingZ{zSampler: signer.zs, h: h}
	for i := 0; i < katSigs; i++ {
		if _, err := signer.Sign(katMessage(i)); err != nil {
			t.Fatal(err)
		}
		hashComplexBits(h, signer.ws.t0)
		hashComplexBits(h, signer.ws.t1)
	}
	const want = "1cd7787d7f3c3e4c9e2f2d834fd872fdd10493afb51e6aaa650ef6cad61989d8"
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Errorf("Sign arithmetic digest %s, want %s", got, want)
	}
}
