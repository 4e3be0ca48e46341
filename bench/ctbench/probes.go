package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"ctgauss"
	"ctgauss/falcon"
	"ctgauss/internal/bitslice"
	"ctgauss/internal/core"
	"ctgauss/internal/obs"
	"ctgauss/internal/prng"
	"ctgauss/internal/registry"
	"ctgauss/internal/sampler"
	"ctgauss/internal/sampler/gen"
)

// startProbeDaemon starts the traced, tiered daemon of a trace run's
// tier probe (and of the pool workload's served twin).
func startProbeDaemon(r *run) (*daemon, error) {
	args := append(append([]string(nil), commonDaemonArgs...),
		"-sigmas", "2,6.15543", "-falcon-n", "0", "-tier-promote-rps", "20000", "-tier-window", "2s", "-trace")
	return startDaemon(r.ctx, r.daemonBin, r.workdir, r.workload+"-probe", args)
}

// tierProbe drives the hot key (σ=3.3, μ=0, 1024 samples per request)
// at a fresh tiered daemon until the tier controller promotes it, then
// 1.5s more, and reads the per-tier cost ledgers.  Every workload runs
// the same probe, so the tier metrics have one definition; the daemon
// sees only this key, so its ledgers are σ=3.3's alone.
func tierProbe(r *run, d *daemon) error {
	body := []byte(fmt.Sprintf(`{"count":%d,"sigma":%g}`, arbCount, hotSigma))
	start := time.Now()
	var promoted atomic.Int64 // ns from start to the first compiled reply
	op := func(w *worker, i int, _ int) outcome {
		rep, err := r.post(w, d.url+"/v1/arbitrary", body)
		served := rep.header.Get("X-Ctgauss-Tier")
		if served == "compiled" {
			promoted.CompareAndSwap(0, int64(time.Since(start)))
		}
		return httpCheck(rep, err, classLight, "tier.probe."+served, func(rep reply) bool {
			return countSamples(rep.body) == arbCount
		})
	}
	next := 0
	var spans []span
	for promoted.Load() == 0 {
		if time.Since(start) > 30*time.Second {
			return fmt.Errorf("tier probe: σ=%g not promoted after 30s", hotSigma)
		}
		res := runPhase(phase{name: "tier-probe", dur: 250 * time.Millisecond, traced: true}, next, r.epoch, op)
		r.account(res)
		spans = append(spans, res.spans...)
		next = res.next
	}
	res := runPhase(phase{name: "tier-probe", dur: 1500 * time.Millisecond, traced: true}, next, r.epoch, op)
	r.account(res)
	spans = append(spans, res.spans...)

	var route, combine []float64
	for _, sp := range spans {
		route = append(route, float64(sp.Stages[obs.StageRoute.String()])/1e3)
		if sp.Name == "tier.probe.convolved" {
			combine = append(combine, float64(sp.Stages[obs.StageCombine.String()])/1e3)
		}
	}
	m, err := scrape(r.client, d.url)
	if err != nil {
		return err
	}
	perSample := func(tier string) float64 {
		return 1e9 * m[`ctgaussd_tier_sample_seconds_total{tier="`+tier+`"}`] / m[`ctgaussd_tier_samples_total{tier="`+tier+`"}`]
	}
	compiled := m[`ctgaussd_tier_samples_total{tier="compiled"}`]
	r.set("tier.promotion_s", float64(promoted.Load())/1e9)
	r.set("tier.compiled_share", compiled/(compiled+m[`ctgaussd_tier_samples_total{tier="convolved"}`]))
	r.set("tier.compiled_ns_per_sample", perSample("compiled"))
	r.set("tier.convolved_ns_per_sample", perSample("convolved"))
	r.set("tier.route_us", mean(route))
	r.set("convolve.combine_us", mean(combine))
	return nil
}

// probePasses is how many interleaved passes each in-process layer probe
// takes the median of.
const probePasses = 21

// probe is one in-process layer measurement: each call runs one pass
// and records its values into vals.
type probe func(vals map[string][]float64) error

func record(vals map[string][]float64, name string, v float64) { vals[name] = append(vals[name], v) }

// runLayerProbes measures every layer in process, in probePasses
// interleaved passes (one pass of each probe per round, so slow drift
// hits all probes alike), and records the median of each metric.
func runLayerProbes(r *run) error {
	defaultPRNG, err := poolPRNG()
	if err != nil {
		return err
	}
	var probes []probe
	var sigmaProbes []*sigmaProbe
	var closers []func()
	defer func() {
		for _, c := range closers {
			c()
		}
	}()
	for _, s := range sigmaSuffixes {
		sp, err := newSigmaProbe(s.suffix, s.sigma, defaultPRNG)
		if err != nil {
			return err
		}
		closers = append(closers, sp.pool.Close)
		sigmaProbes = append(sigmaProbes, sp)
		r.set("prng.bytes_per_sample."+s.suffix, sp.bytesPerSample())
		r.set("bitslice.word_ops_per_sample."+s.suffix, sp.wordOpsPerSample())
		r.set("engine.samples_per_refill."+s.suffix, float64(sp.pool.EngineStats().SamplesPerRefill))
		probes = append(probes, sp.pass(r))
	}
	pp, err := newPRNGProbe()
	if err != nil {
		return err
	}
	probes = append(probes, pp)
	cp, err := newConvolveProbe()
	if err != nil {
		return err
	}
	closers = append(closers, cp.arb.Close)
	plan, err := cp.arb.Plan(hotSigma)
	if err != nil {
		return err
	}
	r.set("convolve.base_draws_per_trial", float64(plan.Draws()))
	probes = append(probes, cp.pass)

	fp, keygen, err := newFalconProbe()
	if err != nil {
		return err
	}
	r.set("falcon.keygen_s", keygen.Seconds())
	probes = append(probes, fp.pass)

	vals := map[string][]float64{}
	for range probePasses {
		for _, p := range probes {
			if err := p(vals); err != nil {
				return err
			}
		}
	}
	for name, vs := range vals {
		r.set(name, median(vs))
	}
	for _, sp := range sigmaProbes {
		st := sp.pool.EngineStats()
		r.set("engine.refill_utilization."+sp.suffix, float64(st.SamplesServed)/float64(st.RefillsProduced*uint64(st.SamplesPerRefill)))
	}
	r.set("falcon.attempts_per_sig", float64(fp.signer.Attempts)/float64(fp.signs))
	for _, s := range sigmaSuffixes {
		overshoot := r.values["sampler.recon_error."+s.suffix]
		r.check(overshoot <= 0.10, "σ=%s: separately timed layers exceed the sampler refill by %.1f%%", s.sigma, 100*overshoot)
	}
	return registryProbe(r)
}

// poolPRNG finds the PRNG a default-configured ctgauss.Pool draws from
// by matching its first batch against pools that name each source.
func poolPRNG() (string, error) {
	draw := func(name string) ([]int, error) {
		p, err := ctgauss.NewPoolWithConfig(ctgauss.Config{Sigma: "2", PRNG: name, Prefetch: -1}, 1)
		if err != nil {
			return nil, err
		}
		defer p.Close()
		out := make([]int, 64)
		return out, p.Take(nil, out)
	}
	def, err := draw("")
	if err != nil {
		return "", err
	}
	for _, name := range []string{"chacha20", "aes-ctr", "shake256"} {
		got, err := draw(name)
		if err != nil {
			return "", err
		}
		if fmt.Sprint(got) == fmt.Sprint(def) {
			return name, nil
		}
	}
	return "", fmt.Errorf("the default pool PRNG matches none of the known sources")
}

// sigmaProbe times one served σ layer by layer, on the same circuit,
// evaluation path and PRNG the pool workload's pool runs.
type sigmaProbe struct {
	suffix   string
	prngName string
	pool     *ctgauss.Pool
	art      *registry.Artifact
	width    int                    // batches per refill (1 on the compiled path)
	compiled func(in, out []uint64) // the generated circuit, when the pool runs it
}

func newSigmaProbe(suffix, sigma, prngName string) (*sigmaProbe, error) {
	pool, err := ctgauss.NewPool(sigma, poolShards)
	if err != nil {
		return nil, err
	}
	art, err := registry.Shared().Get(core.DefaultConfig(sigma))
	if err != nil {
		pool.Close()
		return nil, err
	}
	sp := &sigmaProbe{suffix: suffix, prngName: prngName, pool: pool, art: art, width: pool.Stats().BatchesPerRefill}
	if sp.width == 1 {
		fn, nin, nval, ok := gen.Lookup(sigma)
		if !ok || nin != art.Program.NumInputs || nval != art.Program.ValueBits {
			pool.Close()
			return nil, fmt.Errorf("σ=%s: the pool refills one batch at a time but no matching generated circuit exists", sigma)
		}
		sp.compiled = fn
	}
	return sp, nil
}

// bytesPerSample is the randomness one sample costs: NumInputs input
// words plus one sign word per 64 samples.
func (sp *sigmaProbe) bytesPerSample() float64 {
	return float64(sp.art.Program.NumInputs+1) * 8 / 64
}

// wordOpsPerSample is the circuit length the pool evaluates, per sample.
func (sp *sigmaProbe) wordOpsPerSample() float64 {
	if sp.compiled != nil {
		return float64(sp.art.Program.OpCount()) / 64
	}
	return float64(sp.art.Optimized().OpCount()) / 64
}

func (sp *sigmaProbe) source(role string) prng.Source {
	seed := sha256.Sum256([]byte("ctbench/" + role + "/" + sp.suffix))
	src, err := prng.NewSource(sp.prngName, seed[:])
	if err != nil {
		panic(err) // the name came from poolPRNG
	}
	return src
}

// pass returns the per-σ probe: PRNG fill, word unpack, circuit eval,
// transpose, full sampler refill and a 1-goroutine pool Take, each timed
// on its own.
func (sp *sigmaProbe) pass(r *run) probe {
	refills := max(16, 256/sp.width) // ×width×64 ≈ 16k samples per timed loop
	opt := sp.art.Optimized()
	samples := refills * sp.width * 64
	fillSrc := sp.source("fill")
	rd := prng.NewBitReader(sp.source("unpack"))
	in := make([]uint64, sp.art.Program.NumInputs*sp.width)
	signs := make([]uint64, sp.width)
	prng.NewBitReader(sp.source("eval")).FillWords(in)
	slots := opt.NewSlots(sp.width)
	out := make([]uint64, len(opt.Outputs)*sp.width)
	var smp sampler.BatchSampler
	if sp.compiled != nil {
		smp = sampler.NewCompiled("probe", sp.compiled, sp.art.Program.NumInputs, sp.art.Program.ValueBits, sp.source("refill"))
	} else {
		smp = sp.art.NewWideSampler(sp.source("refill"), sp.width)
	}
	batch := make([]int, 64)
	take := make([]int, poolCount)
	var tr [64]uint64
	copy(tr[:], in)
	buf := make([]byte, 512) // the BitReader's refill granularity
	key := func(name string) string { return name + "." + sp.suffix }
	return func(vals map[string][]float64) error {
		bytes := int(sp.bytesPerSample() * float64(samples))
		t0 := time.Now()
		for n := 0; n < bytes; n += len(buf) {
			fillSrc.Fill(buf)
		}
		fill := nsPer(time.Since(t0), samples)
		record(vals, key("prng.fill_ns_per_sample"), fill)

		t0 = time.Now()
		for range refills {
			rd.FillWords(in)
			if sp.compiled != nil {
				rd.Uint64()
			} else {
				rd.FillWords(signs)
			}
		}
		unpack := nsPer(time.Since(t0), samples) - fill
		record(vals, key("prng.unpack_ns_per_sample"), unpack)

		t0 = time.Now()
		for range refills {
			if sp.compiled != nil {
				sp.compiled(in, out)
			} else {
				opt.RunWideInto(sp.width, in, slots, out)
			}
		}
		eval := nsPer(time.Since(t0), samples)
		record(vals, key("bitslice.eval_ns_per_sample"), eval)

		t0 = time.Now()
		for range refills * sp.width {
			bitslice.Transpose64(&tr)
		}
		transpose := nsPer(time.Since(t0), samples)
		record(vals, key("bitslice.transpose_ns_per_sample"), transpose)

		t0 = time.Now()
		for range refills * sp.width {
			smp.NextBatch(batch)
		}
		refill := nsPer(time.Since(t0), samples)
		record(vals, key("sampler.refill_ns_per_sample"), refill)
		// The separately timed parts against the whole, within one pass so
		// both see the same machine: other is the residual (sign and copy),
		// and recon_error the share by which the parts overshoot the whole,
		// which only a broken attribution can make large.
		parts := fill + unpack + eval + transpose
		record(vals, key("sampler.other_ns_per_sample"), refill-parts)
		record(vals, key("sampler.recon_error"), max(0, parts-refill)/refill)

		before := sp.pool.EngineStats()
		takes := max(1, samples/poolCount)
		t0 = time.Now()
		for range takes {
			if err := sp.pool.Take(r.ctx, take); err != nil {
				return err
			}
		}
		el := time.Since(t0)
		after := sp.pool.EngineStats()
		hits, misses := after.PrefetchHits-before.PrefetchHits, after.PrefetchMisses-before.PrefetchMisses
		record(vals, key("engine.take_ns_per_sample"), nsPer(el, takes*poolCount))
		record(vals, key("engine.prefetch_hit_ratio"), float64(hits)/float64(hits+misses))
		return nil
	}
}

// newPRNGProbe returns the source-throughput probe: each PRNG's Fill in
// the BitReader's 512-byte chunks for at least 1ms per pass.
func newPRNGProbe() (probe, error) {
	names := []string{"chacha20", "aes-ctr", "shake256"}
	srcs := make([]prng.Source, len(names))
	for i, name := range names {
		seed := sha256.Sum256([]byte("ctbench/throughput/" + name))
		var err error
		if srcs[i], err = prng.NewSource(name, seed[:]); err != nil {
			return nil, err
		}
	}
	buf := make([]byte, 512)
	return func(vals map[string][]float64) error {
		for i, src := range srcs {
			n := 0
			t0 := time.Now()
			for time.Since(t0) < time.Millisecond {
				for range 16 {
					src.Fill(buf)
				}
				n += 16 * len(buf)
			}
			record(vals, "prng."+names[i]+"_MBps", float64(n)/time.Since(t0).Seconds()/1e6)
		}
		return nil
	}, nil
}

// convolveProbe times the in-process convolution layer at the hot key,
// beside the daemon's convolved-tier ledger of the tier probe.
type convolveProbe struct {
	arb *ctgauss.Arbitrary
	dst []int
}

func newConvolveProbe() (*convolveProbe, error) {
	arb, err := ctgauss.NewArbitrary(ctgauss.ArbitraryConfig{Shards: 2})
	if err != nil {
		return nil, err
	}
	return &convolveProbe{arb: arb, dst: make([]int, arbCount)}, nil
}

func (cp *convolveProbe) pass(vals map[string][]float64) error {
	const draws = 4
	before := cp.arb.Stats()
	t0 := time.Now()
	for range draws {
		if err := cp.arb.NextBatch(hotSigma, 0, cp.dst); err != nil {
			return err
		}
	}
	el := time.Since(t0)
	after := cp.arb.Stats()
	record(vals, "convolve.ns_per_sample.hot", nsPer(el, draws*arbCount))
	record(vals, "convolve.accept_rate", float64(after.Accepted-before.Accepted)/float64(after.Trials-before.Trials))
	return nil
}

// falconProbe times the public Falcon API on a Falcon-512 key.
type falconProbe struct {
	pk     *falcon.PublicKey
	signer *falcon.Signer
	msg    []byte
	sig    *falcon.Signature
	enc    []byte
	signs  uint64
}

func newFalconProbe() (*falconProbe, time.Duration, error) {
	seed := sha256.Sum256([]byte("ctbench/falcon/key"))
	t0 := time.Now()
	sk, err := falcon.Keygen(512, seed[:])
	keygen := time.Since(t0)
	if err != nil {
		return nil, 0, err
	}
	signSeed := sha256.Sum256([]byte("ctbench/falcon/sign"))
	signer, err := falcon.NewSigner(sk, falcon.BaseBitsliced, signSeed[:])
	if err != nil {
		return nil, 0, err
	}
	fp := &falconProbe{pk: sk.Public(), signer: signer, msg: []byte("ctbench falcon probe message")}
	if fp.sig, err = signer.Sign(fp.msg); err != nil {
		return nil, 0, err
	}
	fp.signs++
	fp.enc = fp.sig.Encode()
	return fp, keygen, nil
}

func (fp *falconProbe) pass(vals map[string][]float64) error {
	const signs, verifies, decodes = 2, 4, 16
	t0 := time.Now()
	for range signs {
		if _, err := fp.signer.Sign(fp.msg); err != nil {
			return err
		}
	}
	fp.signs += signs
	record(vals, "falcon.sign_us", nsPer(time.Since(t0), signs)/1e3)
	t0 = time.Now()
	for range verifies {
		if err := fp.pk.Verify(fp.msg, fp.sig); err != nil {
			return err
		}
	}
	record(vals, "falcon.verify_us", nsPer(time.Since(t0), verifies)/1e3)
	t0 = time.Now()
	for range decodes {
		if _, err := falcon.DecodeSignature(fp.enc); err != nil {
			return err
		}
	}
	record(vals, "falcon.decode_us", nsPer(time.Since(t0), decodes)/1e3)
	return nil
}

// registryPasses is the registry probe's repetition count (each pass
// runs two full minimizations).
const registryPasses = 5

// registryProbe times a cold build of the served σ pair through a fresh
// registry with a disk cache, then a load of the same pair from that
// cache by a second fresh registry.
func registryProbe(r *run) error {
	var builds, loads []float64
	for i := range registryPasses {
		dir := filepath.Join(r.workdir, "tmp", fmt.Sprintf("registry-probe-%d", i))
		os.RemoveAll(dir)
		build, err := timeRegistryGets(dir, false)
		if err != nil {
			return err
		}
		load, err := timeRegistryGets(dir, true)
		if err != nil {
			return err
		}
		os.RemoveAll(dir)
		builds, loads = append(builds, build), append(loads, load)
	}
	r.set("registry.build_s", median(builds))
	r.set("registry.load_s", median(loads))
	return nil
}

// timeRegistryGets resolves the served σ pair through a fresh registry
// on dir and checks where the artifacts came from.
func timeRegistryGets(dir string, fromDisk bool) (float64, error) {
	reg := registry.New(dir)
	t0 := time.Now()
	for _, s := range sigmaSuffixes {
		art, err := reg.Get(core.DefaultConfig(s.sigma))
		if err != nil {
			return 0, err
		}
		if art.FromDisk != fromDisk {
			return 0, fmt.Errorf("registry probe: σ=%s FromDisk=%v, want %v", s.sigma, art.FromDisk, fromDisk)
		}
	}
	return time.Since(t0).Seconds(), nil
}
