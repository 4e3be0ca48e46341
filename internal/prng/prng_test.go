package prng

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	mrand "math/rand"
	"os"
	"os/exec"
	"strings"
	"testing"

	"ctgauss/internal/bitslice/dispatch"
	"ctgauss/internal/faultinject"
)

// RFC 8439 §2.3.2 test vector.
func TestChaCha20RFC8439Block(t *testing.T) {
	var key [32]byte
	for i := range key {
		key[i] = byte(i)
	}
	nonce := [12]byte{0x00, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00, 0x4a, 0, 0, 0, 0}
	got := KeystreamAt(key, 1, nonce)
	want, _ := hex.DecodeString(
		"10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e" +
			"d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e")
	if !bytes.Equal(got[:], want) {
		t.Fatalf("ChaCha20 block mismatch:\n got %x\nwant %x", got, want)
	}
}

func TestChaCha20Deterministic(t *testing.T) {
	a := MustChaCha20([]byte("seed"))
	b := MustChaCha20([]byte("seed"))
	pa := make([]byte, 1000)
	pb := make([]byte, 1000)
	a.Fill(pa)
	b.Fill(pb)
	if !bytes.Equal(pa, pb) {
		t.Fatal("same seed must give same stream")
	}
	c := MustChaCha20([]byte("other"))
	pc := make([]byte, 1000)
	c.Fill(pc)
	if bytes.Equal(pa, pc) {
		t.Fatal("different seeds must differ")
	}
}

func TestChaCha20StreamContinuity(t *testing.T) {
	a := MustChaCha20([]byte("x"))
	b := MustChaCha20([]byte("x"))
	one := make([]byte, 200)
	a.Fill(one)
	var parts []byte
	for len(parts) < 200 {
		chunk := make([]byte, 7)
		b.Fill(chunk)
		parts = append(parts, chunk...)
	}
	if !bytes.Equal(one, parts[:200]) {
		t.Fatal("chunked reads must match one big read")
	}
}

// TestChaCha20Pinned pins 1 MiB of keystream read in chunk sizes that
// cycle through the block (64) and kernel (512) boundaries from both
// sides, so every mix of the buffered tail, whole Go blocks and
// eight-block kernel runs must give the same bytes.  It runs under every
// backend dispatch detects.  The digest predates the vector kernel and
// the direct-to-slice Fill, so it pins the stream, not the code.
func TestChaCha20Pinned(t *testing.T) {
	const want = "4db5572377477268cc77755b558138df7beb9ab5069861bd5f9c60072653aed3"
	sizes := []int{1, 7, 63, 64, 65, 511, 512, 513, 1024, 1040}
	buf := make([]byte, 1040)
	forEachBackend(t, func(t *testing.T) {
		c := MustChaCha20([]byte("chacha20 keystream pin"))
		h := sha256.New()
		for total, i := 0, 0; total < 1<<20; i++ {
			n := min(sizes[i%len(sizes)], 1<<20-total)
			c.Fill(buf[:n])
			h.Write(buf[:n])
			total += n
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
			t.Errorf("SHA-256 of 1 MiB of keystream = %s, want %s", got, want)
		}
	})
}

// TestChaCha20KernelMatchesBlock compares Fill against the Go block, one
// block at a time, on random keys and nonce words, from counter 0 and
// from every counter 2³²−9 … 2³²−1, where a kernel run must stop short
// of the wrap and the Go block must carry into word 13.
func TestChaCha20KernelMatchesBlock(t *testing.T) {
	rng := mrand.New(mrand.NewSource(20))
	counters := []uint32{0}
	for k := uint32(9); k >= 1; k-- {
		counters = append(counters, math.MaxUint32-k+1)
	}
	forEachBackend(t, func(t *testing.T) {
		for trial := 0; trial < 8; trial++ {
			key := make([]byte, 32)
			rng.Read(key)
			start := *MustChaCha20(key)
			for i := 13; i < 16; i++ {
				start.state[i] = rng.Uint32() // nonce words
			}
			for _, ctr := range counters {
				start.state[12] = ctr
				got, ref := start, start
				out := make([]byte, 3*blocks8Bytes)
				got.Fill(out)
				want := make([]byte, len(out))
				for i := 0; i < len(want); i += 64 {
					ref.block((*[64]byte)(want[i:]))
				}
				if !bytes.Equal(out, want) {
					t.Fatalf("trial %d, counter %#x: Fill differs from the Go block", trial, ctr)
				}
				if got.state != ref.state {
					t.Fatalf("trial %d, counter %#x: state %x after Fill, want %x", trial, ctr, got.state, ref.state)
				}
			}
		}
	})
}

// backends lists every SIMD backend this CPU has, portable first.
func backends() []dispatch.Backend {
	return append([]dispatch.Backend{dispatch.Portable}, dispatch.Detected()...)
}

// forEachBackend runs f once under each backend, restoring the
// selection afterwards.
func forEachBackend(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	for _, b := range backends() {
		t.Run(b.String(), func(t *testing.T) {
			restore, err := dispatch.Force(b)
			if err != nil {
				t.Fatal(err)
			}
			defer restore()
			f(t)
		})
	}
}

func TestChaCha20SeedTooLong(t *testing.T) {
	if _, err := NewChaCha20(make([]byte, 33)); err == nil {
		t.Fatal("expected error")
	}
}

// FIPS 202: SHAKE256(""), first 32 bytes.
func TestSHAKE256EmptyKAT(t *testing.T) {
	got := ShakeSum256(32, nil)
	want, _ := hex.DecodeString("46b9dd2b0ba88d13233b3feb743eeb243fcd52ea62b81b82b50c27646ed5762f")
	if !bytes.Equal(got, want) {
		t.Fatalf("SHAKE256(\"\") = %x, want %x", got, want)
	}
}

// SHAKE256("abc"), first 32 bytes (NIST example values).
func TestSHAKE256AbcKAT(t *testing.T) {
	got := ShakeSum256(32, []byte("abc"))
	want, _ := hex.DecodeString("483366601360a8771c6863080cc4114d8db44530f8f1e1ee4f94ea37e78b5739")
	if !bytes.Equal(got, want) {
		t.Fatalf("SHAKE256(abc) = %x, want %x", got, want)
	}
}

func TestSHAKE256LongInputCrossesRate(t *testing.T) {
	// Absorbing more than the 136-byte rate must not corrupt state;
	// compare incremental vs one-shot absorption.
	msg := bytes.Repeat([]byte{0xa3}, 500)
	s1 := NewSHAKE256()
	s1.Absorb(msg)
	o1 := make([]byte, 64)
	s1.Fill(o1)

	s2 := NewSHAKE256()
	for _, b := range msg {
		s2.Absorb([]byte{b})
	}
	o2 := make([]byte, 64)
	s2.Fill(o2)
	if !bytes.Equal(o1, o2) {
		t.Fatal("incremental absorb differs from bulk")
	}
}

func TestSHAKEAbsorbAfterSqueezePanics(t *testing.T) {
	s := NewSHAKE256Seeded([]byte("s"))
	s.Fill(make([]byte, 1))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Absorb([]byte("more"))
}

// TestSHAKE256Pinned pins the SHAKE256 stream beyond the short NIST
// vectors: SHA-256 of 10,000 squeezed bytes of the seeded PRNG, and
// 64 bytes of output after a 300-byte absorb (more than two rate
// blocks).  Both digests come from an independent, hand-written Keccak
// sponge, so they cross-check crypto/sha3 rather than restate it.
func TestSHAKE256Pinned(t *testing.T) {
	out := make([]byte, 10000)
	NewSHAKE256Seeded([]byte("ctgauss")).Fill(out)
	if got, want := fmt.Sprintf("%x", sha256.Sum256(out)), "b3e4144bd7c310dadb601b710c015200fc7838605531fe2635d5add2aeea069b"; got != want {
		t.Errorf("SHA-256 of 10000 squeezed bytes = %s, want %s", got, want)
	}
	msg := make([]byte, 300)
	for i := range msg {
		msg[i] = byte(i * 7)
	}
	want := "39f49d9cb095039f4fb3b8e595ad2230ca727e59d232e19f5220ba1195de06b8" +
		"13f436b1636dd56354d483dda3a14619ca20233525a0a55569a761cee7aaa1fa"
	if got := fmt.Sprintf("%x", ShakeSum256(64, msg)); got != want {
		t.Errorf("SHAKE256 after a 300-byte absorb = %s, want %s", got, want)
	}
}

func TestSHAKESqueezeCrossesRate(t *testing.T) {
	s := NewSHAKE256Seeded([]byte("seed"))
	big := make([]byte, 1000)
	s.Fill(big)
	s2 := NewSHAKE256Seeded([]byte("seed"))
	var parts []byte
	for len(parts) < 1000 {
		chunk := make([]byte, 13)
		s2.Fill(chunk)
		parts = append(parts, chunk...)
	}
	if !bytes.Equal(big, parts[:1000]) {
		t.Fatal("chunked squeeze differs")
	}
}

func TestAESCTRDeterministic(t *testing.T) {
	a, err := NewAESCTR(make([]byte, 16))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := NewAESCTR(make([]byte, 16))
	pa, pb := make([]byte, 300), make([]byte, 300)
	a.Fill(pa)
	b.Fill(pb)
	if !bytes.Equal(pa, pb) {
		t.Fatal("AES-CTR not deterministic")
	}
	if bytes.Equal(pa, make([]byte, 300)) {
		t.Fatal("AES-CTR produced zeros")
	}
}

// TestAESCTRSeedTooLong pins the seed-length contract AES-CTR shares
// with ChaCha20: a seed past 32 bytes is an error, never silently
// truncated to a key that ignores its tail.
func TestAESCTRSeedTooLong(t *testing.T) {
	if _, err := NewSource("aes-ctr", make([]byte, 33)); err == nil || !strings.Contains(err.Error(), "seed must be at most 32 bytes, got 33") {
		t.Fatalf("33-byte seed: err = %v", err)
	}
	if _, err := NewSource("aes-ctr", make([]byte, 32)); err != nil {
		t.Fatalf("32-byte seed: %v", err)
	}
}

func TestNewSourceNames(t *testing.T) {
	for _, name := range []string{"chacha20", "shake256", "aes-ctr"} {
		s, err := NewSource(name, []byte("seed"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.Name() != name {
			t.Fatalf("Name() = %q, want %q", s.Name(), name)
		}
		p := make([]byte, 64)
		s.Fill(p)
	}
	if _, err := NewSource("bogus", nil); err == nil {
		t.Fatal("expected error for unknown source")
	}
}

func TestBitReaderCountsBits(t *testing.T) {
	r := NewBitReader(MustChaCha20([]byte("c")))
	for i := 0; i < 10; i++ {
		r.Bit()
	}
	if r.BitsRead != 10 {
		t.Fatalf("BitsRead = %d, want 10", r.BitsRead)
	}
	r.Uint64()
	if r.BitsRead != 74 {
		t.Fatalf("BitsRead = %d, want 74", r.BitsRead)
	}
}

func TestBitReaderBitOrderMatchesBytes(t *testing.T) {
	src := MustChaCha20([]byte("order"))
	raw := make([]byte, 16)
	src.Fill(raw)

	r := NewBitReader(MustChaCha20([]byte("order")))
	for i := 0; i < 64; i++ {
		want := (raw[i/8] >> uint(i%8)) & 1
		if got := r.Bit(); got != want {
			t.Fatalf("bit %d = %d, want %d", i, got, want)
		}
	}
}

func TestBitReaderWords(t *testing.T) {
	r := NewBitReader(MustChaCha20([]byte("w")))
	dst := make([]uint64, 4)
	r.FillWords(dst)
	if r.BitsRead != 256 {
		t.Fatalf("BitsRead = %d", r.BitsRead)
	}
	allZero := true
	for _, w := range dst {
		if w != 0 {
			allZero = false
		}
	}
	if allZero {
		t.Fatal("words all zero")
	}
}

// TestFillWordsMatchesUint64 pins the bulk path to the per-word reference:
// the same byte stream (including partial-tail discards at buffer edges
// and BitsRead accounting) must come out of FillWords regardless of the
// request size or the reader's alignment going in.  Sizes of 64 words
// and more reach the direct fill, which bypasses the internal buffer;
// 2080 and 2081 span many whole buffers with a buffered tail, and the
// 64 after 91 starts with four stale bytes in the buffer and ends on a
// block boundary, so the reads after it check that the direct fill left
// the buffer empty.
func TestFillWordsMatchesUint64(t *testing.T) {
	for _, name := range []string{"chacha20", "shake256", "aes-ctr"} {
		t.Run(name, func(t *testing.T) {
			newReader := func() *BitReader {
				src, err := NewSource(name, []byte("fw"))
				if err != nil {
					t.Fatal(err)
				}
				return NewBitReader(src)
			}
			bulk, ref := newReader(), newReader()
			sizes := []int{1, 3, 64, 65, 130, 7, 200, 63, 64, 1, 128, 130, 2080, 2081, 91, 64, 1}
			for round, n := range sizes {
				got := make([]uint64, n)
				want := make([]uint64, n)
				bulk.FillWords(got)
				for i := range want {
					want[i] = ref.Uint64()
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("round %d (n=%d) word %d: FillWords %#x, Uint64 %#x", round, n, i, got[i], want[i])
					}
				}
				if bulk.BitsRead != ref.BitsRead {
					t.Fatalf("round %d: BitsRead %d vs %d", round, bulk.BitsRead, ref.BitsRead)
				}
				// Misalign both readers identically between rounds to cover
				// the re-alignment path (odd byte counts and dangling bits).
				var gotBytes, wantBytes [3]byte
				bulk.Bytes(gotBytes[:])
				ref.Bytes(wantBytes[:])
				if gotBytes != wantBytes || bulk.Bit() != ref.Bit() {
					t.Fatalf("round %d (n=%d): the reads after FillWords diverge", round, n)
				}
			}
		})
	}
}

// TestFillWordsDirectFiresReadSeam pins the chaos seam on the direct
// fill: a fresh reader asked for exactly one buffer's worth of words
// never touches the internal buffer, yet an armed PRNGReadError must
// still fire there, as it does on every refill.
func TestFillWordsDirectFiresReadSeam(t *testing.T) {
	defer faultinject.Arm(faultinject.PRNGReadError, faultinject.Fault{Shard: faultinject.AnyShard, Count: 1})()
	r := NewBitReader(MustChaCha20([]byte("seam")))
	defer func() {
		if _, ok := recover().(*faultinject.Injected); !ok {
			t.Fatal("FillWords of 64 words on a fresh reader did not fire PRNGReadError")
		}
	}()
	r.FillWords(make([]uint64, 64))
}

func TestBitReaderMonobitSanity(t *testing.T) {
	// Frequency test: roughly half the bits should be 1.
	for _, name := range []string{"chacha20", "shake256", "aes-ctr"} {
		src, _ := NewSource(name, []byte("monobit"))
		r := NewBitReader(src)
		ones := 0
		const n = 100000
		for i := 0; i < n; i++ {
			ones += int(r.Bit())
		}
		if ones < n/2-1000 || ones > n/2+1000 {
			t.Errorf("%s: %d ones of %d", name, ones, n)
		}
	}
}

func TestServingPRNG(t *testing.T) {
	cases := []struct {
		hw      bool
		godebug string
		want    string
	}{
		{true, "", "aes-ctr"},
		{false, "", "chacha20"},
		{true, "cpu.aes=off", "chacha20"},
		{true, "cpu.sse41=off", "chacha20"},
		{true, "cpu.ssse3=off", "chacha20"},
		{true, "cpu.all=off", "chacha20"},
		{true, "gctrace=1,cpu.aes=off", "chacha20"},
		{true, "cpu.avx2=off,cpu.avx512f=off", "aes-ctr"},
		{true, "cpu.aes=on", "aes-ctr"},
		{true, "cpu.aes=off,cpu.aes=on", "aes-ctr"},
		{true, "cpu.all=off,cpu.aes=on", "chacha20"},
		{true, "cpu.all=off,cpu.all=on", "aes-ctr"},
		{true, "cpu.aes=bogus", "aes-ctr"},
		{false, "cpu.all=on", "chacha20"},
	}
	for _, c := range cases {
		if got := servingPRNG(c.hw, c.godebug); got != c.want {
			t.Errorf("servingPRNG(%v, %q) = %q, want %q", c.hw, c.godebug, got, c.want)
		}
	}
}

// TestServingReport logs the resolved default; TestServingGODEBUG runs
// it in subprocesses under each GODEBUG spelling.
func TestServingReport(t *testing.T) { t.Logf("serving=%s", Serving()) }

// TestServingGODEBUG checks, in fresh processes, that every GODEBUG
// switch that turns off crypto/aes's AES-NI path also turns off the
// aes-ctr serving default, and that with GODEBUG empty the default
// follows the hardware.
func TestServingGODEBUG(t *testing.T) {
	run := func(godebug string) string {
		cmd := exec.Command(os.Args[0], "-test.run=^TestServingReport$", "-test.v")
		cmd.Env = append(os.Environ(), "GODEBUG="+godebug)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("GODEBUG=%s: %v\n%s", godebug, err, out)
		}
		for _, name := range []string{"chacha20", "aes-ctr"} {
			if strings.Contains(string(out), "serving="+name) {
				return name
			}
		}
		t.Fatalf("GODEBUG=%s: no serving= line in\n%s", godebug, out)
		return ""
	}
	for _, godebug := range []string{"cpu.aes=off", "cpu.sse41=off", "cpu.ssse3=off", "cpu.all=off"} {
		if got := run(godebug); got != "chacha20" {
			t.Errorf("GODEBUG=%s: Serving() = %s, want chacha20", godebug, got)
		}
	}
	if got, want := run(""), servingPRNG(hardwareAES, ""); got != want {
		t.Errorf("GODEBUG empty: Serving() = %s, want %s", got, want)
	}
}

// BenchmarkChaCha20Fill measures keystream throughput in the
// BitReader's 512-byte refills, one kernel run each, per backend.
func BenchmarkChaCha20Fill(b *testing.B) {
	buf := make([]byte, bufSize)
	for _, be := range backends() {
		b.Run(be.String(), func(b *testing.B) {
			restore, err := dispatch.Force(be)
			if err != nil {
				b.Fatal(err)
			}
			defer restore()
			c := MustChaCha20([]byte("bench"))
			b.SetBytes(int64(len(buf)))
			for b.Loop() {
				c.Fill(buf)
			}
		})
	}
}
