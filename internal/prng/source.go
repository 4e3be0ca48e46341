package prng

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"fmt"
	"unsafe"

	"ctgauss/internal/faultinject"
)

// AESCTR runs AES-128/256 in counter mode as a PRNG — the "platform
// specific alternative" (AES-NI) the paper's conclusion suggests for
// cutting the pseudorandom-bit cost.  It is constant time only where
// crypto/aes runs on AES instructions; Serving decides when it may be
// the default.
type AESCTR struct {
	stream cipher.Stream
}

// NewAESCTR builds an AES-CTR PRNG from a 16, 24 or 32 byte seed.
func NewAESCTR(seed []byte) (*AESCTR, error) {
	block, err := aes.NewCipher(seed)
	if err != nil {
		return nil, fmt.Errorf("prng: %w", err)
	}
	iv := make([]byte, block.BlockSize())
	return &AESCTR{stream: cipher.NewCTR(block, iv)}, nil
}

// Name implements Source.
func (a *AESCTR) Name() string { return "aes-ctr" }

// Fill implements Source: the keystream XORed over zeros.
func (a *AESCTR) Fill(p []byte) {
	clear(p)
	a.stream.XORKeyStream(p, p)
}

// bufSize is the BitReader's refill granularity in bytes.
const bufSize = 512

// blockWords is one refill's worth of 64-bit words.
const blockWords = bufSize / 8

// littleEndian reports whether the host stores a uint64 least
// significant byte first, so that a byte view of a []uint64 decodes
// word by word as binary.LittleEndian.Uint64.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// BitReader adapts a Source to single-bit and word reads while counting
// consumption, supporting the paper's bits-per-sample measurements (§7).
type BitReader struct {
	src      Source
	buf      [bufSize]byte
	off      int
	bitInOff uint
	// BitsRead counts every random bit handed out.
	BitsRead uint64
}

// NewBitReader wraps src.
func NewBitReader(src Source) *BitReader {
	r := &BitReader{src: src}
	r.off = len(r.buf)
	return r
}

func (r *BitReader) refill() {
	// Chaos seam: an armed PRNGReadError fault panics here, modeling an
	// entropy-source failure; it surfaces inside whatever fill consumes
	// this reader, where the engine's recovery contains it.  Disarmed
	// (always, in production) this is one atomic load.
	faultinject.Fire(faultinject.PRNGReadError, faultinject.AnyShard)
	r.src.Fill(r.buf[:])
	r.off = 0
	r.bitInOff = 0
}

// Bit returns the next random bit.
func (r *BitReader) Bit() byte {
	if r.off >= len(r.buf) {
		r.refill()
	}
	b := (r.buf[r.off] >> r.bitInOff) & 1
	r.bitInOff++
	if r.bitInOff == 8 {
		r.bitInOff = 0
		r.off++
	}
	r.BitsRead++
	return b
}

// Uint64 returns the next 64 random bits as a word, byte-aligned (any
// partially consumed byte is discarded, like real implementations do).
func (r *BitReader) Uint64() uint64 {
	r.alignByte()
	if r.off+8 > len(r.buf) {
		r.refill()
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	r.BitsRead += 64
	return v
}

// Bytes fills p with whole random bytes.
func (r *BitReader) Bytes(p []byte) {
	r.alignByte()
	for len(p) > 0 {
		if r.off >= len(r.buf) {
			r.refill()
		}
		n := copy(p, r.buf[r.off:])
		r.off += n
		r.BitsRead += uint64(8 * n)
		p = p[n:]
	}
}

func (r *BitReader) alignByte() {
	if r.bitInOff != 0 {
		r.bitInOff = 0
		r.off++
	}
}

// Words fills dst with random 64-bit words (the packed bit-planes consumed
// by the bitsliced sampler: word i carries bit i of 64 independent lanes).
// It is equivalent to calling Uint64 per word but reads the internal
// buffer in bulk.
func (r *BitReader) Words(dst []uint64) { r.FillWords(dst) }

// FillWords fills dst with random 64-bit words, the batch path of the
// wide samplers, which draw NumInputs×W words at a time.  Whenever it
// reaches a refill point with 64 or more words still to go, it fills the
// largest multiple of 64 words straight from the source through a byte
// view of dst, skipping the staging copy through the internal buffer
// (little-endian hosts only; big-endian hosts stay on the buffered
// loop).  Either way the byte stream consumed — including the discard of
// a partial trailing word before a refill — and the BitsRead accounting
// are identical to repeated Uint64 calls, so sampler output is
// unchanged.
func (r *BitReader) FillWords(dst []uint64) {
	r.alignByte()
	for len(dst) > 0 {
		if r.off+8 > len(r.buf) {
			if n := len(dst) - len(dst)%blockWords; littleEndian && n > 0 {
				r.fillDirect(dst[:n])
				dst = dst[n:]
				continue
			}
			r.refill()
		}
		n := (len(r.buf) - r.off) / 8
		if n > len(dst) {
			n = len(dst)
		}
		chunk := r.buf[r.off : r.off+8*n]
		for i := 0; i < n; i++ {
			dst[i] = binary.LittleEndian.Uint64(chunk[8*i:])
		}
		r.off += 8 * n
		r.BitsRead += uint64(64 * n)
		dst = dst[n:]
	}
}

// fillDirect is FillWords' unbuffered refill: dst holds a whole number
// of refill blocks, which the source writes in place.  It fires the
// PRNGReadError seam once per block, as refill would, and leaves the
// buffer empty, exactly where refill followed by draining the whole
// buffer would leave it.
func (r *BitReader) fillDirect(dst []uint64) {
	for range len(dst) / blockWords {
		faultinject.Fire(faultinject.PRNGReadError, faultinject.AnyShard)
	}
	r.src.Fill(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(dst))), 8*len(dst)))
	r.off = len(r.buf)
	r.BitsRead += uint64(64 * len(dst))
}

// NewSource constructs a Source by name: "chacha20", "shake256",
// "aes-ctr".  ChaCha20 and AES-CTR take seeds of at most 32 bytes;
// AES-CTR zero-pads any other length below 32 to a 256-bit key.
func NewSource(name string, seed []byte) (Source, error) {
	switch name {
	case "chacha20":
		return NewChaCha20(seed)
	case "shake256":
		return NewSHAKE256Seeded(seed), nil
	case "aes-ctr":
		if len(seed) > 32 {
			return nil, fmt.Errorf("prng: AES-CTR seed must be at most 32 bytes, got %d", len(seed))
		}
		s := seed
		if len(s) != 16 && len(s) != 24 && len(s) != 32 {
			padded := make([]byte, 32)
			copy(padded, s)
			s = padded
		}
		return NewAESCTR(s)
	default:
		return nil, fmt.Errorf("prng: unknown source %q", name)
	}
}
