package falcon

import (
	"bytes"
	"testing"
)

// FuzzDecodeSignature checks that signature decoding is canonical:
// whatever bytes /v1/falcon/verify receives, decoding either fails or
// returns a signature whose Encode is exactly those bytes, so no two
// byte strings carry the same signature.  Seeds live in
// testdata/fuzz/FuzzDecodeSignature.
func FuzzDecodeSignature(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		sig, err := DecodeSignature(data)
		if err != nil {
			return
		}
		if enc := sig.Encode(); !bytes.Equal(enc, data) {
			t.Fatalf("decoded %d bytes that re-encode to %d different bytes", len(data), len(enc))
		}
	})
}

// FuzzDecodePublic checks that public-key decoding is canonical and
// that verifying any decodable signature under any decodable key
// returns rather than panics, whatever its degree.  Seeds live in
// testdata/fuzz/FuzzDecodePublic.
func FuzzDecodePublic(f *testing.F) {
	f.Fuzz(func(t *testing.T, key, sig []byte) {
		pk, err := DecodePublic(key)
		if err != nil {
			return
		}
		if enc := pk.EncodePublic(); !bytes.Equal(enc, key) {
			t.Fatalf("decoded %d key bytes that re-encode to %d different bytes", len(key), len(enc))
		}
		if s, err := DecodeSignature(sig); err == nil {
			_ = pk.Verify([]byte("fuzz"), s)
		}
	})
}
