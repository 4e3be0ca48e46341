package falcon

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// checkAgainstRef fails t unless decompressCoeffs and
// decompressCoeffsRef agree on payload: both reject it, or both accept
// it with identical coefficients.
func checkAgainstRef(t *testing.T, payload []byte, n int) {
	t.Helper()
	got, err := decompressCoeffs(payload, n)
	want, refErr := decompressCoeffsRef(payload, n)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("n=%d, %d payload bytes: decoder error %v, reference error %v", n, len(payload), err, refErr)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("n=%d, %d payload bytes: coefficients differ from the reference", n, len(payload))
	}
}

// refBitWriter and compressCoeffsRef are the bit-at-a-time payload
// encoder that compressCoeffs replaced, kept as its reference.
type refBitWriter struct {
	buf []byte
	n   uint // bits written
}

func (w *refBitWriter) writeBit(b uint) {
	if w.n%8 == 0 {
		w.buf = append(w.buf, 0)
	}
	if b != 0 {
		w.buf[len(w.buf)-1] |= 0x80 >> (w.n % 8)
	}
	w.n++
}

func (w *refBitWriter) writeBits(v uint, width uint) {
	for i := int(width) - 1; i >= 0; i-- {
		w.writeBit((v >> uint(i)) & 1)
	}
}

func compressCoeffsRef(cs []int16) []byte {
	var w refBitWriter
	for _, c := range cs {
		v := int(c)
		sign := uint(0)
		if v < 0 {
			sign = 1
			v = -v
		}
		w.writeBit(sign)
		w.writeBits(uint(v)&0x7f, 7)
		for k := v >> 7; k > 0; k-- {
			w.writeBit(0)
		}
		w.writeBit(1)
	}
	return w.buf
}

// refBitReader and decompressCoeffsRef are the bit-at-a-time payload
// decoder that decompressCoeffs replaced, kept as its reference.
type refBitReader struct {
	buf []byte
	n   uint
}

func (r *refBitReader) readBit() (uint, error) {
	if r.n >= uint(len(r.buf))*8 {
		return 0, fmt.Errorf("falcon: bitstream exhausted")
	}
	b := uint(r.buf[r.n/8]>>(7-r.n%8)) & 1
	r.n++
	return b, nil
}

func (r *refBitReader) readBits(width uint) (uint, error) {
	var v uint
	for i := uint(0); i < width; i++ {
		b, err := r.readBit()
		if err != nil {
			return 0, err
		}
		v = v<<1 | b
	}
	return v, nil
}

func decompressCoeffsRef(data []byte, n int) ([]int16, error) {
	r := refBitReader{buf: data}
	out := make([]int16, n)
	for i := 0; i < n; i++ {
		sign, err := r.readBit()
		if err != nil {
			return nil, err
		}
		low, err := r.readBits(7)
		if err != nil {
			return nil, err
		}
		high := uint(0)
		for {
			b, err := r.readBit()
			if err != nil {
				return nil, err
			}
			if b == 1 {
				break
			}
			high++
			if high > 255 {
				return nil, fmt.Errorf("falcon: unary run too long")
			}
		}
		v := int(high<<7 | low)
		if sign == 1 {
			if v == 0 {
				return nil, fmt.Errorf("falcon: negative zero encoding")
			}
			v = -v
		}
		out[i] = int16(v)
	}
	pad := (8 - r.n%8) % 8
	if (r.n+7)/8 != uint(len(data)) || data[len(data)-1]&(1<<pad-1) != 0 {
		return nil, fmt.Errorf("falcon: non-canonical signature payload")
	}
	return out, nil
}

// TestDecodeMatchesReference holds compressCoeffs and decompressCoeffs
// to their references on coefficient vectors, and the decoder also on
// the encodings' mutations: every single bit flipped, every truncation,
// and appended zero and nonzero bytes.  The vectors mix Falcon-sized
// coefficients with the edge magnitudes of the unary field (127, 128,
// 32767 and the 256-zero run just past it).
func TestDecodeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(64)
		cs := make([]int16, n)
		for i := range cs {
			switch rng.Intn(8) {
			case 0:
				cs[i] = int16(rng.Intn(65535) - 32767)
			case 1:
				cs[i] = []int16{0, 127, -127, 128, -128, 32767, -32767}[rng.Intn(7)]
			default:
				cs[i] = int16(rng.NormFloat64() * 165)
			}
		}
		enc := compressCoeffs(cs)
		if ref := compressCoeffsRef(cs); !bytes.Equal(enc, ref) {
			t.Fatalf("trial %d: encoder output differs from the reference", trial)
		}
		checkAgainstRef(t, enc, n)
		for bit := 0; bit < len(enc)*8; bit++ {
			m := slices.Clone(enc)
			m[bit/8] ^= 0x80 >> (bit % 8)
			checkAgainstRef(t, m, n)
		}
		for l := 0; l < len(enc); l++ {
			checkAgainstRef(t, enc[:l], n)
		}
		checkAgainstRef(t, append(slices.Clone(enc), 0), n)
		checkAgainstRef(t, append(slices.Clone(enc), 0x80), n)
		checkAgainstRef(t, append(slices.Clone(enc), make([]byte, 40)...), n)
	}
	// A unary run of exactly 256 zeros is one past the longest legal one.
	run := append([]byte{0x00}, make([]byte, 32)...)
	checkAgainstRef(t, append(run, 0x80), 1)
}

// TestEncodeMatchesReference requires byte identity with the reference
// encoder on random coefficients across the encodable range
// [−32767, 32767] (uniform, so most runs are long), on every single
// coefficient value, and on empty input.
func TestEncodeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		cs := make([]int16, rng.Intn(600))
		for i := range cs {
			cs[i] = int16(rng.Intn(65535) - 32767)
		}
		if got, want := compressCoeffs(cs), compressCoeffsRef(cs); !bytes.Equal(got, want) {
			t.Fatalf("trial %d (%d coefficients): encoder output differs from the reference", trial, len(cs))
		}
	}
	for v := -32767; v <= 32767; v++ {
		cs := []int16{int16(v)}
		if got, want := compressCoeffs(cs), compressCoeffsRef(cs); !bytes.Equal(got, want) {
			t.Fatalf("coefficient %d: encoded %x, reference %x", v, got, want)
		}
	}
	if got := compressCoeffs(nil); len(got) != 0 {
		t.Fatalf("empty input encoded to %x", got)
	}
}

// TestEncodeAllocs pins the encoder to its one up-front buffer, and
// Signature.Encode to that plus the output it returns.
func TestEncodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	rng := rand.New(rand.NewSource(4))
	sig := &Signature{Salt: make([]byte, SaltLen), S1: make([]int16, 512)}
	for i := range sig.S1 {
		sig.S1[i] = int16(rng.NormFloat64() * 165)
	}
	if a := testing.AllocsPerRun(16, func() { compressCoeffs(sig.S1) }); a != 1 {
		t.Errorf("compressCoeffs: %v allocations, want 1", a)
	}
	if a := testing.AllocsPerRun(16, func() { sig.Encode() }); a > 2 {
		t.Errorf("Signature.Encode: %v allocations, want at most 2", a)
	}
}

// BenchmarkEncodeSignature encodes one Falcon-512-sized payload — 512
// coefficients drawn with σ = 165, about s1's spread at that degree —
// with the accumulator encoder and with the bit-at-a-time reference.
func BenchmarkEncodeSignature(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	cs := make([]int16, 512)
	for i := range cs {
		cs[i] = int16(rng.NormFloat64() * 165)
	}
	for _, enc := range []struct {
		name string
		fn   func([]int16) []byte
	}{{"encoder", compressCoeffs}, {"reference", compressCoeffsRef}} {
		b.Run(enc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				enc.fn(cs)
			}
		})
	}
}

// BenchmarkDecodeSignature decodes one Falcon-512-sized payload — 512
// coefficients drawn with σ = 165, about s1's spread at that degree —
// with the accumulator decoder and with the bit-at-a-time reference.
func BenchmarkDecodeSignature(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	cs := make([]int16, 512)
	for i := range cs {
		cs[i] = int16(rng.NormFloat64() * 165)
	}
	enc := compressCoeffs(cs)
	for _, dec := range []struct {
		name string
		fn   func([]byte, int) ([]int16, error)
	}{{"decoder", decompressCoeffs}, {"reference", decompressCoeffsRef}} {
		b.Run(dec.name, func(b *testing.B) {
			b.SetBytes(int64(len(enc)))
			for i := 0; i < b.N; i++ {
				if _, err := dec.fn(enc, len(cs)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
