package registry

import (
	"math/rand"
	"os"
	"testing"

	"ctgauss/internal/bitslice"
	"ctgauss/internal/core"
	"ctgauss/internal/prng"
)

// fuzzCfg is the key every FuzzLoadDisk input is stored under: a small
// real circuit (σ=2, n=16) keeps the seed written by storeDisk at ~5 KB.
var fuzzCfg = core.Config{Sigma: "2", N: 16, TailCut: 13, Min: core.MinimizeExact}

// FuzzLoadDisk writes each input as the cache file of fuzzCfg's key and
// checks the decoder's contract: loadDisk rejects the file, or returns
// an artifact for that key whose program passes Validate, evaluates
// identically optimized and interpreted, and drives a wide sampler.
// Seeds live in testdata/fuzz/FuzzLoadDisk.
func FuzzLoadDisk(f *testing.F) {
	r := New(f.TempDir())
	key := KeyFor(fuzzCfg)
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(r.path(key), data, 0o600); err != nil {
			t.Fatal(err)
		}
		art := r.loadDisk(key)
		if art == nil {
			return
		}
		if art.Key != key || !art.FromDisk {
			t.Fatalf("loaded key %v (FromDisk %v) for %v", art.Key, art.FromDisk, key)
		}
		p := art.Program
		if err := p.Validate(); err != nil {
			t.Fatalf("loaded a program that fails Validate: %v", err)
		}
		rng := rand.New(rand.NewSource(int64(len(data))))
		o := art.Optimized()
		for _, w := range []int{1, bitslice.Width} {
			in := make([]uint64, p.NumInputs*w)
			for i := range in {
				in[i] = rng.Uint64()
			}
			out := make([]uint64, len(o.Outputs)*w)
			o.RunWideInto(w, in, o.NewSlots(w), out)
			checkBlocks(t, p, w, in, out)
		}
		art.NewWideSampler(prng.MustChaCha20([]byte("fuzz")), bitslice.Width).NextBatch(make([]int, 64))
	})
}

// checkBlocks compares a width-w output-major evaluation with p.Run on
// each 64-lane block of the input-major inputs.
func checkBlocks(t *testing.T, p *bitslice.Program, w int, in, out []uint64) {
	t.Helper()
	ref := make([]uint64, p.NumInputs)
	for blk := 0; blk < w; blk++ {
		for i := range ref {
			ref[i] = in[i*w+blk]
		}
		for i, want := range p.Run(ref, nil) {
			if got := out[i*w+blk]; got != want {
				t.Fatalf("w=%d block %d output %d: optimized %#x, interpreted %#x", w, blk, i, got, want)
			}
		}
	}
}
