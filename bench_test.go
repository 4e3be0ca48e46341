// Benchmarks regenerating every table and figure of the paper's
// evaluation.  Run: go test -bench=. -benchmem
//
//	Table 1  → BenchmarkTable1SignPerSec   (signs/sec per level × sampler)
//	Table 2  → BenchmarkTable2Sampler      (cost per 64-sample batch,
//	            this-work split minimization vs [21] simple minimization)
//	Fig. 5   → BenchmarkFig5Histogram      (histogram generation throughput;
//	            the plot itself comes from cmd/histogram)
//	§7       → BenchmarkPRNGOverhead       (PRNG share of sampling cost)
//	Ablation → BenchmarkAblation*          (design-choice costs)
//
// The build-once/serve-many path has its own rows: BenchmarkBuildMinimization,
// BenchmarkRegistryCacheHit, BenchmarkRegistryDiskLoad and
// BenchmarkPoolThroughput.
package ctgauss_test

import (
	"fmt"
	"sync"
	"testing"

	"ctgauss"
	"ctgauss/falcon"
	"ctgauss/internal/bitslice"
	"ctgauss/internal/core"
	"ctgauss/internal/prng"
	"ctgauss/internal/registry"
	"ctgauss/internal/sampler"
	"ctgauss/internal/sampler/gen"
)

var (
	keyMu   sync.Mutex
	keyBy   = map[int]*falcon.PrivateKey{}
	built   = map[string]*core.Built{}
	builtMu sync.Mutex
)

func benchKey(b *testing.B, n int) *falcon.PrivateKey {
	b.Helper()
	keyMu.Lock()
	defer keyMu.Unlock()
	if sk, ok := keyBy[n]; ok {
		return sk
	}
	sk, err := falcon.Keygen(n, []byte("bench-key-seed"))
	if err != nil {
		b.Fatal(err)
	}
	keyBy[n] = sk
	return sk
}

func benchBuilt(b *testing.B, sigma string, n int, min core.Minimizer) *core.Built {
	b.Helper()
	builtMu.Lock()
	defer builtMu.Unlock()
	key := fmt.Sprintf("%s/%d/%d", sigma, n, min)
	if bb, ok := built[key]; ok {
		return bb
	}
	bb, err := core.Build(core.Config{Sigma: sigma, N: n, TailCut: 13, Min: min})
	if err != nil {
		b.Fatal(err)
	}
	built[key] = bb
	return bb
}

// BenchmarkTable1SignPerSec reproduces Table 1: Falcon signing throughput
// for each security level and base sampler.  signs/sec = 1e9/(ns/op).
func BenchmarkTable1SignPerSec(b *testing.B) {
	for _, n := range []int{256, 512, 1024} {
		for _, kind := range []falcon.BaseSamplerKind{
			falcon.BaseByteScanCDT, falcon.BaseCDT,
			falcon.BaseLinearCDT, falcon.BaseBitsliced,
		} {
			b.Run(fmt.Sprintf("N%d/%v", n, kind), func(b *testing.B) {
				sk := benchKey(b, n)
				signer, err := falcon.NewSigner(sk, kind, []byte("bench"))
				if err != nil {
					b.Fatal(err)
				}
				msg := []byte("benchmark message")
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := signer.Sign(msg); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(1e9/float64(b.Elapsed().Nanoseconds())*float64(b.N), "signs/sec")
			})
		}
	}
}

// BenchmarkTable2Sampler reproduces Table 2: the cost of one 64-sample
// batch under the paper's efficient (split) minimization versus the simple
// minimization of [21], for σ = 2 and σ = 6.15543 at n = 128.
func BenchmarkTable2Sampler(b *testing.B) {
	compiled := map[string]struct {
		fn        func(in, out []uint64)
		nin, nval int
	}{
		"2":       {gen.Sigma2Batch, gen.Sigma2BatchInputs, gen.Sigma2BatchValueBits},
		"6.15543": {gen.Sigma615543Batch, gen.Sigma615543BatchInputs, gen.Sigma615543BatchValueBits},
	}
	for _, sigma := range []string{"2", "6.15543"} {
		b.Run("sigma"+sigma+"/thiswork-compiled", func(b *testing.B) {
			c := compiled[sigma]
			s := sampler.NewCompiled("c", c.fn, c.nin, c.nval, prng.MustChaCha20([]byte("t2")))
			dst := make([]int, 64)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.NextBatch(dst)
			}
		})
		b.Run("sigma"+sigma+"/thiswork", func(b *testing.B) {
			bb := benchBuilt(b, sigma, 128, core.MinimizeExact)
			s := bb.NewWideSampler(prng.MustChaCha20([]byte("t2")), bitslice.Width)
			dst := make([]int, 64)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.NextBatch(dst)
			}
			b.ReportMetric(float64(bb.Program.OpCount()), "wordops/batch")
		})
		// The same circuit at width 1, the paper's per-batch stream
		// layout (the row above runs at bitslice.Width).
		b.Run("sigma"+sigma+"/thiswork-w1", func(b *testing.B) {
			bb := benchBuilt(b, sigma, 128, core.MinimizeExact)
			s := bb.NewWideSampler(prng.MustChaCha20([]byte("t2")), 1)
			dst := make([]int, 64)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.NextBatch(dst)
			}
		})
		// The pre-optimization reference: the SSA interpreter with the
		// per-bit unpack loop, kept as the baseline the optimized engine
		// is measured against.
		b.Run("sigma"+sigma+"/thiswork-refinterp", func(b *testing.B) {
			bb := benchBuilt(b, sigma, 128, core.MinimizeExact)
			s := sampler.NewReference(bb.Program, prng.MustChaCha20([]byte("t2")))
			dst := make([]int, 64)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.NextBatch(dst)
			}
		})
		b.Run("sigma"+sigma+"/simple21", func(b *testing.B) {
			builtMu.Lock()
			key := "simple/" + sigma
			bs, ok := built[key]
			if !ok {
				var err error
				bsp, err := core.BuildSimple(core.Config{Sigma: sigma, N: 128, TailCut: 13})
				if err != nil {
					builtMu.Unlock()
					b.Fatal(err)
				}
				bs = &core.Built{Program: bsp.Program, Table: bsp.Table, Tree: bsp.Tree, Config: bsp.Config}
				built[key] = bs
			}
			builtMu.Unlock()
			s := bs.NewWideSampler(prng.MustChaCha20([]byte("t2")), bitslice.Width)
			dst := make([]int, 64)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.NextBatch(dst)
			}
			b.ReportMetric(float64(bs.Program.OpCount()), "wordops/batch")
		})
	}
}

// BenchmarkFig5Histogram measures bulk sample generation as used for the
// Fig. 5 histograms (64×10⁷ samples in the paper; cmd/histogram draws the
// plot).
func BenchmarkFig5Histogram(b *testing.B) {
	for _, sigma := range []string{"2", "6.15543"} {
		b.Run("sigma"+sigma, func(b *testing.B) {
			bb := benchBuilt(b, sigma, 128, core.MinimizeExact)
			s := bb.NewWideSampler(prng.MustChaCha20([]byte("fig5")), bitslice.Width)
			hist := make(map[int]int)
			dst := make([]int, 64)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.NextBatch(dst)
				for _, v := range dst {
					hist[v]++
				}
			}
			b.ReportMetric(float64(b.N*64)/float64(b.Elapsed().Seconds()+1e-12), "samples/sec")
		})
	}
}

// BenchmarkPRNGOverhead reproduces the §7 observation: most of the
// sampling time goes into the PRNG.  Compare the full sampler against the
// same volume of raw PRNG output.
func BenchmarkPRNGOverhead(b *testing.B) {
	bb := benchBuilt(b, "2", 128, core.MinimizeExact)
	words := bb.Program.NumInputs + 1
	for _, name := range []string{"chacha20", "shake256", "aes-ctr"} {
		b.Run("sampler/"+name, func(b *testing.B) {
			src, err := prng.NewSource(name, []byte("ovh"))
			if err != nil {
				b.Fatal(err)
			}
			s := bb.NewWideSampler(src, bitslice.Width)
			dst := make([]int, 64)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.NextBatch(dst)
			}
		})
		b.Run("prngonly/"+name, func(b *testing.B) {
			src, err := prng.NewSource(name, []byte("ovh"))
			if err != nil {
				b.Fatal(err)
			}
			rd := prng.NewBitReader(src)
			buf := make([]uint64, words)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rd.FillWords(buf)
			}
		})
	}
}

// BenchmarkAblationMinimizer quantifies the minimization strategies.
func BenchmarkAblationMinimizer(b *testing.B) {
	for _, min := range []core.Minimizer{core.MinimizeExact, core.MinimizeGreedy, core.MinimizeNone} {
		b.Run(min.String(), func(b *testing.B) {
			bb := benchBuilt(b, "2", 128, min)
			s := bb.NewWideSampler(prng.MustChaCha20([]byte("abl")), bitslice.Width)
			dst := make([]int, 64)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.NextBatch(dst)
			}
			b.ReportMetric(float64(bb.Program.OpCount()), "wordops/batch")
		})
	}
}

// BenchmarkAblationBaselineCSE separates the paper's two levers: exact
// minimization and systematic prefix sharing.  flat+CSE recovers most of
// the sharing without the sublist split.
func BenchmarkAblationBaselineCSE(b *testing.B) {
	for _, cse := range []bool{false, true} {
		name := "flat-nocse"
		if cse {
			name = "flat-cse"
		}
		b.Run(name, func(b *testing.B) {
			builder := core.BuildSimple
			if cse {
				builder = core.BuildSimpleCSE
			}
			bs, err := builder(core.Config{Sigma: "2", N: 128, TailCut: 13})
			if err != nil {
				b.Fatal(err)
			}
			s := bs.NewWideSampler(prng.MustChaCha20([]byte("cse")), bitslice.Width)
			dst := make([]int, 64)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.NextBatch(dst)
			}
			b.ReportMetric(float64(bs.Program.OpCount()), "wordops/batch")
		})
	}
}

// BenchmarkSamplerComparison covers every sampler implementation on the
// same distribution (per single sample) — context for Tables 1 and 2.
func BenchmarkSamplerComparison(b *testing.B) {
	bb := benchBuilt(b, "2", 128, core.MinimizeExact)
	mk := map[string]func() sampler.Sampler{
		"bitsliced": func() sampler.Sampler {
			return bb.NewWideSampler(prng.MustChaCha20([]byte("c")), bitslice.Width)
		},
		"bitsliced-compiled": func() sampler.Sampler {
			return sampler.NewCompiled("c", gen.Sigma2Batch, gen.Sigma2BatchInputs, gen.Sigma2BatchValueBits, prng.MustChaCha20([]byte("c")))
		},
		"knuthyao":   func() sampler.Sampler { return sampler.NewKnuthYao(bb.Table, prng.MustChaCha20([]byte("c"))) },
		"cdt-binary": func() sampler.Sampler { return sampler.NewCDT(bb.Table, prng.MustChaCha20([]byte("c"))) },
		"cdt-bytescan": func() sampler.Sampler {
			return sampler.NewByteScanCDT(bb.Table, prng.MustChaCha20([]byte("c")))
		},
		"cdt-linear-ct": func() sampler.Sampler {
			return sampler.NewLinearCDT(bb.Table, prng.MustChaCha20([]byte("c")))
		},
	}
	for name, f := range mk {
		b.Run(name, func(b *testing.B) {
			s := f()
			b.ResetTimer()
			acc := 0
			for i := 0; i < b.N; i++ {
				acc += s.Next()
			}
			_ = acc
		})
	}
}

// BenchmarkKeygen and BenchmarkVerify complete the Falcon picture.
func BenchmarkKeygen(b *testing.B) {
	for _, n := range []int{256, 512} {
		b.Run(fmt.Sprintf("N%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := falcon.Keygen(n, []byte(fmt.Sprintf("kg-%d-%d", n, i))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkVerify(b *testing.B) {
	for _, n := range []int{256, 512, 1024} {
		b.Run(fmt.Sprintf("N%d", n), func(b *testing.B) {
			sk := benchKey(b, n)
			signer, err := falcon.NewSigner(sk, falcon.BaseBitsliced, []byte("v"))
			if err != nil {
				b.Fatal(err)
			}
			msg := []byte("verify me")
			sig, err := signer.Sign(msg)
			if err != nil {
				b.Fatal(err)
			}
			pk := sk.Public()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := pk.Verify(msg, sig); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGenerationPipeline measures the offline generator itself.
func BenchmarkGenerationPipeline(b *testing.B) {
	for _, sigma := range []string{"2", "6.15543"} {
		b.Run("sigma"+sigma, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Build(core.Config{Sigma: sigma, N: 128, TailCut: 13, Min: core.MinimizeExact}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBuildMinimization compares the serial and parallel fan-out of
// the per-sublist exact minimization — the tentpole build-time speedup
// (proportional to core count; this machine may be single-core).
func BenchmarkBuildMinimization(b *testing.B) {
	for _, bc := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := core.Build(core.Config{Sigma: "2", N: 128, TailCut: 13, Min: core.MinimizeExact, Workers: bc.workers})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRegistryCacheHit measures the serve-side latency of a warmed
// registry — the amortized cost every caller after the first pays.
func BenchmarkRegistryCacheHit(b *testing.B) {
	reg := registry.New("")
	cfg := core.Config{Sigma: "2", N: 128, TailCut: 13, Min: core.MinimizeExact}
	if _, err := reg.Get(cfg); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reg.Get(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRegistryDiskLoad measures the O(load) repeat-build path: a cold
// in-memory registry deserializing the compiled circuit from disk.
func BenchmarkRegistryDiskLoad(b *testing.B) {
	dir := b.TempDir()
	cfg := core.Config{Sigma: "2", N: 128, TailCut: 13, Min: core.MinimizeExact}
	if _, err := registry.New(dir).Get(cfg); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		art, err := registry.New(dir).Get(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if !art.FromDisk {
			b.Fatal("expected disk hit")
		}
	}
}

// BenchmarkPoolThroughput measures concurrent serving at 1/4/16 callers
// against a pool with one shard per caller.
func BenchmarkPoolThroughput(b *testing.B) {
	for _, g := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("g%d", g), func(b *testing.B) {
			pool, err := ctgauss.NewPool("2", g)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var wg sync.WaitGroup
			wg.Add(g)
			per := b.N / g
			rem := b.N % g
			for i := 0; i < g; i++ {
				n := per
				if i < rem {
					n++
				}
				go func(n int) {
					defer wg.Done()
					dst := make([]int, 64)
					for j := 0; j < n; j++ {
						pool.NextBatch(dst)
					}
				}(n)
			}
			wg.Wait()
			b.ReportMetric(float64(b.N*64)/(b.Elapsed().Seconds()+1e-12), "samples/sec")
		})
	}
}
