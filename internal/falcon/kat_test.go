package falcon

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// katSignerSeed and katMessage fix the signing side of the known-answer
// test: each base kind signs katSigs messages from one signer seed.
const (
	katSignerSeed = "falcon-kat-signer"
	katSigs       = 8
)

func katMessage(i int) []byte { return []byte(fmt.Sprintf("falcon known-answer message %d", i)) }

// katSignatures digests katSigs encoded signatures of the fixed messages
// from a fresh signer of the given kind.
func katSignatures(t *testing.T, sk *PrivateKey, kind BaseSamplerKind) string {
	t.Helper()
	signer, err := NewSignerWithKind(sk, kind, []byte(katSignerSeed))
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for i := 0; i < katSigs; i++ {
		sig, err := signer.Sign(katMessage(i))
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		h.Write(sig.Encode())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestKnownAnswers pins Falcon's outputs at every ring degree: the
// SHA-256 of testKey(N)'s encoded public key, and per base kind the
// SHA-256 over the encodings of katSigs signatures.  Keys, BaseBitsliced
// and the three CDT kinds are the same on every host.  The CDT kinds
// read identical randomness through identical tables, so they sign
// identically.  BaseConvolve draws its base stream at bitslice.Width,
// the one interpreted width, so its pin is host-independent too.
func TestKnownAnswers(t *testing.T) {
	for _, kat := range []struct {
		n         int
		key       string
		bitsliced string
		cdt       string
		convolve  string
	}{
		{
			n:         256,
			key:       "2a77efeb3d7091428ab9f2d284e8824d51a67a09caa225db58d3e2faf94ebcc2",
			bitsliced: "bf5f41126216238b1a4302b3fca016cef794f277627903d53bda60e696f95840",
			cdt:       "df375b1f1d3cda747c72cf0480d412dc655cc07bab5535b5a36dec70dc4b6d61",
			convolve:  "5cb4d40dc6c828641dcad89ca9adb94c2dd343f98d7ba32c185a96f3802c5c70",
		},
		{
			n:         512,
			key:       "153d2d0b3a20107f7f0631be5c2415d5b3f2eb36adcf9d2ff82ddf1c68051f34",
			bitsliced: "4f53a7cf4c58aa7cf9609c75bc8eb40c4cd9b4efc91cf9c59c4d7480bc4808d5",
			cdt:       "94e867fa246898fb010dfa40af13f81597d7d7f4fa3af24d47b2a006c43c2374",
			convolve:  "9bb85ed59c43671f6aa88e346a1baa1b917e1227540e4ea0abdf09eb7f3895b0",
		},
		{
			n:         1024,
			key:       "9b222d20703fbfc5d7ace6da4dc815b6e207ffc2d6295144eab89adb64a3f9a3",
			bitsliced: "cfdfd3f4e4b4aa6a6d42c47b43511d593d2fe5603a2a592b03ffd0801ad5e24d",
			cdt:       "5824482a6dcbdd0c6c8ffca591d65eef18472bb8b4e28fe386a883d11b4938a9",
			convolve:  "316abb732cf3f8ba49f6a62a5652fb076c14d2e786153cc6fd1c51d6e701f49f",
		},
	} {
		t.Run(fmt.Sprintf("N%d", kat.n), func(t *testing.T) {
			if kat.n > 256 && testing.Short() {
				t.Skip("keygen at N ≥ 512 takes seconds")
			}
			sk := testKey(t, kat.n)
			if got := fmt.Sprintf("%x", sha256.Sum256(sk.Public().EncodePublic())); got != kat.key {
				t.Errorf("public key digest %s, want %s", got, kat.key)
			}
			if got := katSignatures(t, sk, BaseBitsliced); got != kat.bitsliced {
				t.Errorf("%v: signatures digest %s, want %s", BaseBitsliced, got, kat.bitsliced)
			}
			for _, kind := range []BaseSamplerKind{BaseCDT, BaseByteScanCDT, BaseLinearCDT} {
				if got := katSignatures(t, sk, kind); got != kat.cdt {
					t.Errorf("%v: signatures digest %s, want %s", kind, got, kat.cdt)
				}
			}
			if got := katSignatures(t, sk, BaseConvolve); got != kat.convolve {
				t.Errorf("%v: signatures digest %s, want %s", BaseConvolve, got, kat.convolve)
			}
		})
	}
}
