// Package sampler implements every discrete Gaussian sampler the paper
// evaluates: the constant-time bitsliced Knuth-Yao sampler (this work and
// the simple-minimization baseline of [21]), three CDT-based samplers
// (binary search [26], byte-scanning [13], and the linear-search
// constant-time variant [7]) and the reference column-scanning
// Knuth-Yao sampler (Alg. 1).  Large σ, the convolution of [25,28], is
// internal/convolve's job.
//
// All samplers return signed samples: the magnitude follows the folded
// distribution (p₀ = D(0), p_v = 2·D(v)), and an independent sign bit maps
// v to ±v, which reproduces D_σ exactly because ±0 coincide.
//
// Bitsliced samplers evaluate at width 1 or bitslice.Width, both
// constants, so a seed names one stream on every host whatever its SIMD
// backend.  NewEngine shards bitsliced samplers onto the refill engine
// (internal/engine); every sharded bitsliced stream is built through it.
package sampler

import (
	"fmt"
	"math/big"

	"ctgauss/internal/bitslice"
	"ctgauss/internal/ddg"
	"ctgauss/internal/gaussian"
	"ctgauss/internal/prng"
)

// Sampler draws signed discrete Gaussian samples.
type Sampler interface {
	// Next returns one signed sample.
	Next() int
	// Name identifies the sampler in experiment output.
	Name() string
	// BitsUsed reports the total random bits consumed so far.
	BitsUsed() uint64
}

// BatchSampler is implemented by samplers that natively produce batches of
// 64 samples (the bitsliced designs).
type BatchSampler interface {
	Sampler
	// NextBatch fills dst (len ≥ 64) with 64 signed samples.
	NextBatch(dst []int)
}

// applySign maps a folded magnitude and a sign bit to a signed sample
// without branching on secrets: z = (mag XOR -s) + s.
func applySign(mag int, s uint64) int {
	m := uint64(mag)
	neg := -(s & 1)
	return int(int64((m ^ neg) + (s & 1)))
}

// unpackSigned expands packed magnitude planes and one sign word into 64
// signed samples via a single 64×64 bit-matrix transpose.  Plane i is
// planes[i*stride] (stride lets the wide sampler address one lane block
// of its output-major buffer without copying it out first).
func unpackSigned(planes []uint64, stride int, sign uint64, dst []int) {
	var tr [64]uint64
	n := (len(planes) + stride - 1) / stride
	for i := 0; i < n; i++ {
		tr[i] = planes[i*stride]
	}
	bitslice.Transpose64(&tr)
	for l := 0; l < 64; l++ {
		dst[l] = applySign(int(tr[l]), (sign>>uint(l))&1)
	}
}

// batchBuf is the sample buffer behind the bitsliced samplers,
// implementing the shared Next/NextBatch contract over a refill function
// that regenerates batch and resets used.  NextBatch drains samples
// already buffered by Next before spending a fresh circuit evaluation, so
// nothing is discarded; the buffer holds one refill's worth of samples
// (64 for Reference, width×64 for Bitsliced).
type batchBuf struct {
	batch []int
	used  int
}

// newBatchBuf allocates an empty n-sample buffer (first use refills).
func newBatchBuf(n int) batchBuf { return batchBuf{batch: make([]int, n), used: n} }

func (b *batchBuf) next(refill func()) int {
	if b.used == len(b.batch) {
		refill()
	}
	v := b.batch[b.used]
	b.used++
	return v
}

func (b *batchBuf) nextBatch(dst []int, refill func()) {
	if len(dst) < 64 {
		panic(fmt.Sprintf("sampler: NextBatch dst has len %d, need ≥ 64", len(dst)))
	}
	n := 0
	for b.used < len(b.batch) && n < 64 {
		dst[n] = b.batch[b.used]
		b.used++
		n++
	}
	if n < 64 {
		refill()
		m := 64 - n
		copy(dst[n:64], b.batch[:m])
		b.used = m
	}
}

// Bitsliced is the paper's constant-time sampler: a straight-line
// circuit evaluated on W×64 lanes of packed random bits per pass, with
// each 64-lane block unpacked through one 64×64 bit-matrix transpose.
// The pass is either the register-allocated interpreter
// (Optimized.RunWideInto: dense slot file, fused dispatch, SIMD kernels
// where the host has them) at width 1 or bitslice.Width, or a circuit
// compiled to Go by the generator tool at width 1 (NewCompiled).
//
// Randomness is consumed in W-batch blocks: NumInputs×W input words
// (input-major) followed by W sign words.  At width 1 this is exactly the
// draw order of the original per-batch interpreter, so a width-1 sampler
// is stream-compatible with the reference implementation, and the
// interpreted and generated forms of one circuit draw the same stream.
// The wide layout at bitslice.Width trades that order for throughput (the
// per-sample distribution is identical at either width); since the width
// is a constant, a stream is a function of its seed alone on every host.
type Bitsliced struct {
	pass  func(in, out []uint64) // one evaluation over W×64 lanes
	rd    *prng.BitReader
	name  string
	w     int
	in    []uint64 // NumInputs×W, input-major
	out   []uint64 // ValueBits×W, output-major
	signs []uint64
	batchBuf
	// Batches counts 64-sample batches generated (W per evaluation).
	Batches uint64
}

func newBitsliced(name string, src prng.Source, w, numInputs, valueBits int, pass func(in, out []uint64)) *Bitsliced {
	return &Bitsliced{
		pass:     pass,
		rd:       prng.NewBitReader(src),
		name:     name,
		w:        w,
		in:       make([]uint64, numInputs*w),
		out:      make([]uint64, valueBits*w),
		signs:    make([]uint64, w),
		batchBuf: newBatchBuf(w * 64),
	}
}

// NewBitslicedWidth wraps an optimized circuit with an explicit
// evaluation width: 1 (the reference stream layout, 64 lanes per pass)
// or bitslice.Width (1024 lanes per pass).  Any other width panics.
func NewBitslicedWidth(name string, opt *bitslice.Optimized, src prng.Source, w int) *Bitsliced {
	if w != 1 && w != bitslice.Width {
		panic(fmt.Sprintf("sampler: width %d unsupported: samplers run at width 1 or %d", w, bitslice.Width))
	}
	slots := opt.NewSlots(w) // NumSlots×W, slot-major
	return newBitsliced(name, src, w, opt.NumInputs, len(opt.Outputs),
		func(in, out []uint64) { opt.RunWideInto(w, in, slots, out) })
}

// NewCompiled wraps a circuit compiled to Go by the generator tool
// (cmd/gaussgen) — exactly how the paper deploys its sampler (its tool
// emits C that is compiled into Falcon).  fn evaluates one 64-lane batch
// from numInputs input words into valueBits output planes, so the
// sampler runs at width 1 and draws the same stream as the interpreted
// circuit at width 1.
func NewCompiled(name string, fn func(in, out []uint64), numInputs, valueBits int, src prng.Source) *Bitsliced {
	return newBitsliced(name, src, 1, numInputs, valueBits, fn)
}

// Name implements Sampler.
func (b *Bitsliced) Name() string { return b.name }

// BitsUsed implements Sampler.
func (b *Bitsliced) BitsUsed() uint64 { return b.rd.BitsRead }

// Width returns the evaluation width W.
func (b *Bitsliced) Width() int { return b.w }

func (b *Bitsliced) refill() {
	b.rd.FillWords(b.in)
	b.rd.FillWords(b.signs)
	b.pass(b.in, b.out)
	for blk := 0; blk < b.w; blk++ {
		base := blk * 64
		unpackSigned(b.out[blk:], b.w, b.signs[blk], b.batch[base:base+64])
	}
	b.used = 0
	b.Batches += uint64(b.w)
}

// Next implements Sampler.
func (b *Bitsliced) Next() int { return b.next(b.refill) }

// NextBatch implements BatchSampler; see batchBuf for the drain-first
// contract.
func (b *Bitsliced) NextBatch(dst []int) { b.nextBatch(dst, b.refill) }

// KnuthYao is the reference non-constant-time column-scanning sampler
// (Algorithm 1): it consumes one bit per tree level and stops at a leaf.
type KnuthYao struct {
	matrix [][]byte
	rd     *prng.BitReader
}

// NewKnuthYao builds the reference sampler over a probability table.
func NewKnuthYao(t *gaussian.Table, src prng.Source) *KnuthYao {
	return &KnuthYao{matrix: t.Matrix(), rd: prng.NewBitReader(src)}
}

// Name implements Sampler.
func (k *KnuthYao) Name() string { return "knuth-yao-ref" }

// BitsUsed implements Sampler.
func (k *KnuthYao) BitsUsed() uint64 { return k.rd.BitsRead }

// Next implements Sampler.
func (k *KnuthYao) Next() int {
	for {
		v, _, err := ddg.Scan(k.matrix, ddg.BitSourceFunc(k.rd.Bit))
		if err != nil {
			continue // fell off the truncated tree (prob ≈ 2^-n): retry
		}
		return applySign(v, uint64(k.rd.Bit()))
	}
}

// cdtEntry is a 128-bit left-aligned cumulative probability.
type cdtEntry struct{ hi, lo uint64 }

func cdtLess(a, b cdtEntry) bool {
	if a.hi != b.hi {
		return a.hi < b.hi
	}
	return a.lo < b.lo
}

// buildCDT converts the folded probability table into left-aligned 128-bit
// cumulative values: cdt[v] = Σ_{u ≤ v} p_u · 2^(128-n).
func buildCDT(t *gaussian.Table) []cdtEntry {
	shift := uint(128 - t.Params.N)
	cum := new(big.Int)
	out := make([]cdtEntry, t.Support+1)
	for v, p := range t.Probs {
		cum.Add(cum, p)
		s := new(big.Int).Lsh(cum, shift)
		lo := new(big.Int).And(s, maxU64)
		hi := new(big.Int).Rsh(s, 64)
		hi.And(hi, maxU64)
		out[v] = cdtEntry{hi: hi.Uint64(), lo: lo.Uint64()}
	}
	return out
}

var maxU64 = new(big.Int).SetUint64(^uint64(0))

// CDT is the binary-search CDT sampler of Peikert [26] — the fastest
// non-constant-time baseline in Table 1 after byte-scanning.
type CDT struct {
	table []cdtEntry
	rd    *prng.BitReader
	// Steps counts binary-search iterations (instrumentation; leaks).
	Steps uint64
}

// NewCDT builds the sampler.
func NewCDT(t *gaussian.Table, src prng.Source) *CDT {
	return &CDT{table: buildCDT(t), rd: prng.NewBitReader(src)}
}

// Name implements Sampler.
func (c *CDT) Name() string { return "cdt-binary" }

// BitsUsed implements Sampler.
func (c *CDT) BitsUsed() uint64 { return c.rd.BitsRead }

// drawEntry reads 16 random bytes and assembles them most-significant
// first, so that every CDT variant consumes the identical random value
// from the identical stream (tested against each other).
func drawEntry(rd *prng.BitReader) cdtEntry {
	var b [16]byte
	rd.Bytes(b[:])
	var hi, lo uint64
	for i := 0; i < 8; i++ {
		hi = hi<<8 | uint64(b[i])
		lo = lo<<8 | uint64(b[8+i])
	}
	return cdtEntry{hi: hi, lo: lo}
}

// Next implements Sampler.
func (c *CDT) Next() int {
	r := drawEntry(c.rd)
	lo, hi := 0, len(c.table)
	for lo < hi {
		c.Steps++
		mid := (lo + hi) / 2
		if cdtLess(r, c.table[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo >= len(c.table) {
		lo = len(c.table) - 1 // r beyond last cumulative (mass deficit)
	}
	return applySign(lo, uint64(c.rd.Bit()))
}

// ByteScanCDT is the byte-scanning sampler of Du-Bai [13]: it walks the
// table comparing one byte at a time, usually resolving on the first byte
// — fast on average, timing leaks the sample.
type ByteScanCDT struct {
	// bytes[v][i] is byte i (most significant first) of cdt[v].
	bytes [][]byte
	rd    *prng.BitReader
	// Steps counts table-scan iterations — instrumentation for the
	// constant-time analysis (ctcheck): it correlates with the sample.
	Steps uint64
}

// NewByteScanCDT builds the sampler.
func NewByteScanCDT(t *gaussian.Table, src prng.Source) *ByteScanCDT {
	raw := buildCDT(t)
	bs := make([][]byte, len(raw))
	for v, e := range raw {
		b := make([]byte, 16)
		for i := 0; i < 8; i++ {
			b[i] = byte(e.hi >> uint(56-8*i))
			b[8+i] = byte(e.lo >> uint(56-8*i))
		}
		bs[v] = b
	}
	return &ByteScanCDT{bytes: bs, rd: prng.NewBitReader(src)}
}

// Name implements Sampler.
func (c *ByteScanCDT) Name() string { return "cdt-bytescan" }

// BitsUsed implements Sampler.
func (c *ByteScanCDT) BitsUsed() uint64 { return c.rd.BitsRead }

// Next implements Sampler.
func (c *ByteScanCDT) Next() int {
	var r [16]byte
	c.rd.Bytes(r[:])
	// Find the first table entry strictly greater than r, scanning bytes
	// most-significant first with early exit.
	for v := 0; v < len(c.bytes); v++ {
		c.Steps++
		e := c.bytes[v]
		greater := false
		for i := 0; i < 16; i++ {
			c.Steps++
			if e[i] != r[i] {
				greater = e[i] > r[i]
				break
			}
		}
		if greater {
			return applySign(v, uint64(c.rd.Bit()))
		}
	}
	return applySign(len(c.bytes)-1, uint64(c.rd.Bit()))
}

// LinearCDT is the constant-time linear-search CDT sampler of Bos et
// al. [7]: it compares the random value against every table entry with
// branch-free arithmetic and accumulates the index.
type LinearCDT struct {
	table []cdtEntry
	rd    *prng.BitReader
	// Steps counts comparison iterations; it is the same for every sample
	// by construction (full table walk).
	Steps uint64
}

// NewLinearCDT builds the sampler.
func NewLinearCDT(t *gaussian.Table, src prng.Source) *LinearCDT {
	return &LinearCDT{table: buildCDT(t), rd: prng.NewBitReader(src)}
}

// Name implements Sampler.
func (c *LinearCDT) Name() string { return "cdt-linear-ct" }

// BitsUsed implements Sampler.
func (c *LinearCDT) BitsUsed() uint64 { return c.rd.BitsRead }

// Next implements Sampler.
func (c *LinearCDT) Next() int {
	r := drawEntry(c.rd)
	// index = number of entries ≤ r, computed branch-free over the whole
	// table: for each entry, ge = 1 iff r ≥ entry.
	idx := uint64(0)
	for _, e := range c.table {
		c.Steps++
		hiGT := isGreater(r.hi, e.hi)
		hiEQ := isEqual(r.hi, e.hi)
		loGE := 1 - isLess(r.lo, e.lo)
		ge := hiGT | (hiEQ & loGE)
		idx += ge
	}
	// r < cdt[idx] and r ≥ cdt[idx-1]; clamp deficit overflow branch-free.
	over := isEqual(idx, uint64(len(c.table)))
	idx -= over
	return applySign(int(idx), uint64(c.rd.Bit()))
}

// isLess returns 1 if a < b else 0, branch-free: the borrow bit of a-b,
// computed as ((¬a & b) | ((¬a | b) & (a-b))) >> 63.
func isLess(a, b uint64) uint64 {
	return ((^a & b) | ((^a | b) & (a - b))) >> 63
}

// isGreater returns 1 if a > b else 0, branch-free.
func isGreater(a, b uint64) uint64 { return isLess(b, a) }

// isEqual returns 1 if a == b else 0, branch-free.
func isEqual(a, b uint64) uint64 {
	x := a ^ b
	return ((x | -x) >> 63) ^ 1
}
