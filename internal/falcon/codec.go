package falcon

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// Signature and key serialisation.  The signature payload uses the spec's
// Golomb-Rice style compression: per coefficient a sign bit, the 7 low
// magnitude bits, then the high bits in unary (k zeros and a terminating
// one).

// refill tops up a payload reader's 64-bit accumulator a byte at a time
// from data[pos:], until it holds more than 56 unread bits or data runs
// out.  acc holds the nbits unread bits left-aligned, every bit below
// them zero.  The reader is three locals rather than a struct so the
// compiler keeps it in registers.
func refill(data []byte, pos int, acc uint64, nbits uint) (int, uint64, uint) {
	for nbits <= 56 && pos < len(data) {
		acc |= uint64(data[pos]) << (56 - nbits)
		pos++
		nbits += 8
	}
	return pos, acc, nbits
}

// compressCoeffs encodes signed coefficients into one buffer sized up
// front.  Bits collect MSB-first in a 64-bit accumulator, left-aligned
// as in the decoder, and leave it a byte at a time; a unary run's zeros
// only advance the bit count, since the buffer starts zeroed.
func compressCoeffs(cs []int16) []byte {
	nbits := 0
	for _, c := range cs {
		nbits += 9 + abs(int(c))>>7
	}
	out := make([]byte, (nbits+7)/8)
	pos, acc, n := 0, uint64(0), uint(0) // at most 8 bits pending between coefficients
	for _, c := range cs {
		v, sign := int(c), uint64(0)
		if v < 0 {
			v, sign = -v, 0x80
		}
		acc |= (sign | uint64(v)&0x7f) << (56 - n)
		n += 8 + uint(v>>7)
		for n >= 8 {
			out[pos] = byte(acc >> 56)
			pos++
			acc <<= 8
			n -= 8
		}
		acc |= 1 << (63 - n) // the unary run's terminating one
		n++
	}
	if n > 0 {
		out[pos] = byte(acc >> 56)
	}
	return out
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// decompressCoeffs decodes n signed coefficients.  Each coefficient's
// sign and low bits are the accumulator's top byte, and its unary high
// part is one leading-zero count, so decoding costs a few word
// operations per coefficient.
func decompressCoeffs(data []byte, n int) ([]int16, error) {
	pos, acc, nbits := 0, uint64(0), uint(0)
	out := make([]int16, n)
	for i := range out {
		pos, acc, nbits = refill(data, pos, acc, nbits)
		if nbits < 8 {
			return nil, errExhausted
		}
		head := uint(acc >> 56) // sign bit, then 7 low magnitude bits
		acc <<= 8
		nbits -= 8
		// Unread bits are left-aligned over zeros, so a leading-zero
		// count stops at the terminating one or covers every unread bit;
		// only a run that outlasts the accumulator refills it.
		high := uint(0)
		for {
			z := min(uint(bits.LeadingZeros64(acc)), nbits)
			high += z
			if high > 255 {
				return nil, fmt.Errorf("falcon: unary run too long")
			}
			if z < nbits {
				acc <<= z + 1
				nbits -= z + 1
				break
			}
			pos, acc, nbits = refill(data, pos, 0, 0)
			if nbits == 0 {
				return nil, errExhausted
			}
		}
		v := int(high<<7 | head&0x7f)
		if head>>7 == 1 {
			if v == 0 {
				return nil, fmt.Errorf("falcon: negative zero encoding")
			}
			v = -v
		}
		out[i] = int16(v)
	}
	// Only the canonical encoding decodes, as in Falcon's reference
	// decoder: the payload ends in the byte holding the last coefficient's
	// final bit, and that byte's unused low bits are zero.  Otherwise
	// distinct byte strings would carry the same valid signature.  Here
	// that means every byte was loaded, fewer than 8 bits are unread, and
	// the unread bits are zero.
	if pos != len(data) || nbits >= 8 || acc != 0 {
		return nil, fmt.Errorf("falcon: non-canonical signature payload")
	}
	return out, nil
}

// errExhausted rejects a payload that ends mid-coefficient.
var errExhausted = errors.New("falcon: bitstream exhausted")

// Encode serialises a signature: salt ‖ uint16 payload length ‖ payload.
func (s *Signature) Encode() []byte {
	payload := compressCoeffs(s.S1)
	out := make([]byte, 0, SaltLen+2+len(payload)+2)
	out = append(out, s.Salt...)
	var lenb [4]byte
	binary.BigEndian.PutUint32(lenb[:], uint32(len(s.S1))<<16|uint32(len(payload)))
	out = append(out, lenb[:]...)
	return append(out, payload...)
}

// DecodeSignature parses Encode's output.
func DecodeSignature(data []byte) (*Signature, error) {
	if len(data) < SaltLen+4 {
		return nil, ErrBadLength
	}
	salt := append([]byte(nil), data[:SaltLen]...)
	word := binary.BigEndian.Uint32(data[SaltLen : SaltLen+4])
	n := int(word >> 16)
	plen := int(word & 0xffff)
	rest := data[SaltLen+4:]
	if len(rest) != plen || n == 0 || n > 1024 {
		return nil, ErrBadLength
	}
	s1, err := decompressCoeffs(rest, n)
	if err != nil {
		return nil, err
	}
	return &Signature{Salt: salt, S1: s1}, nil
}

// EncodePublic serialises a public key as N big-endian uint16s after a
// one-byte log₂(N) header.
func (pk *PublicKey) EncodePublic() []byte {
	out := make([]byte, 1+2*len(pk.H))
	logn := 0
	for 1<<logn < pk.Params.N {
		logn++
	}
	out[0] = byte(logn)
	for i, v := range pk.H {
		binary.BigEndian.PutUint16(out[1+2*i:], v)
	}
	return out
}

// DecodePublic parses EncodePublic output.
func DecodePublic(data []byte) (*PublicKey, error) {
	if len(data) < 1 {
		return nil, ErrBadLength
	}
	n := 1 << data[0]
	params, err := ParamsFor(n)
	if err != nil {
		return nil, err
	}
	if len(data) != 1+2*n {
		return nil, ErrBadLength
	}
	h := make([]uint16, n)
	for i := range h {
		h[i] = binary.BigEndian.Uint16(data[1+2*i:])
		if h[i] >= Q {
			return nil, fmt.Errorf("falcon: public coefficient %d out of range", i)
		}
	}
	return &PublicKey{Params: params, H: h}, nil
}
