package main

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ctgauss"
	"ctgauss/falcon"
)

// workloadDef is one benchmark workload: its untraced end-to-end run and
// its traced per-layer run.
type workloadDef struct {
	name     string
	endToEnd func(r *run) error
	layers   func(r *run) error
}

func workloads() []*workloadDef {
	return []*workloadDef{
		{"pool", poolEndToEnd, poolLayers},
		httpWorkloadDef("http-samples", newSamplesLoad),
		httpWorkloadDef("http-arbitrary", newArbitraryLoad),
		httpWorkloadDef("http-falcon", newFalconLoad),
	}
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads() {
		out = append(out, w.name)
	}
	return out
}

func workloadByName(name string) (*workloadDef, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// Seeded choice streams (the s argument of pick).
const (
	streamKind   = 1 // which request of the mix
	streamItem   = 2 // which message, signature or key
	streamTamper = 3 // whether a verify is tampered
	streamDecode = 5 // whether a response is fully decoded
)

// decodeShare: one response in decodeShare is fully decoded and checked;
// the rest get a byte-scan count, so the load generator stays cheap.
const decodeShare = 16

// sliceLen is the length of one side's turn when a trace run alternates
// its traced and untraced sides.  With ABBA order a side waits at most
// 1s, so http-arbitrary's promoted hot key sees traffic in every 2s tier
// window on both daemons and never demotes.
const sliceLen = 500 * time.Millisecond

// commonDaemonArgs are the ctgaussd flags every workload daemon gets.
var commonDaemonArgs = []string{"-shards", "2", "-arbitrary-shards", "2", "-falcon-shards", "2"}

// ---- pool: in-process ctgauss.Pool ----

// The pool workload: two pools (σ=2 and σ=6.15543, two shards each) and
// two goroutines calling Take for 4096 samples, σ picked 50/50.
var poolSigmas = []string{"2", "6.15543"}

const (
	poolShards = 2
	poolCount  = 4096
)

// poolSetupChild is the pool-setup process: build the pools, print ready.
func poolSetupChild() {
	for _, s := range poolSigmas {
		p, err := ctgauss.NewPool(s, poolShards)
		if err != nil {
			fatal(err)
		}
		defer p.Close()
	}
	fmt.Println("ready")
}

// timePoolSetup execs this binary in pool-setup mode and times exec to
// its ready line.
func timePoolSetup(ctx context.Context) (time.Duration, error) {
	cmd, err := childCommand(ctx, "pool-setup")
	if err != nil {
		return 0, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	buf := make([]byte, 16)
	n, _ := out.Read(buf)
	d := time.Since(start)
	if err := cmd.Wait(); err != nil {
		return 0, fmt.Errorf("pool setup child: %w", err)
	}
	if strings.TrimSpace(string(buf[:n])) != "ready" {
		return 0, fmt.Errorf("pool setup child printed %q", buf[:n])
	}
	return d, nil
}

type poolLoad struct {
	r        *run
	pools    []*ctgauss.Pool
	support  []float64
	prefixes []*prefix
}

func newPoolLoad(r *run) (*poolLoad, error) {
	pl := &poolLoad{r: r}
	for _, s := range poolSigmas {
		p, err := ctgauss.NewPool(s, poolShards)
		if err != nil {
			pl.close()
			return nil, err
		}
		sf, _ := strconv.ParseFloat(s, 64)
		pl.pools = append(pl.pools, p)
		pl.support = append(pl.support, float64(p.Stats().Support))
		pl.prefixes = append(pl.prefixes, newPrefix(sf, 0))
	}
	return pl, nil
}

func (pl *poolLoad) close() {
	for _, p := range pl.pools {
		p.Close()
	}
}

// op draws one Take and checks the support bound on every sample.
func (pl *poolLoad) op(w *worker, i int, _ int) outcome {
	k := int(pick(pl.r.seed, streamKind, i) & 1)
	if w.ints == nil {
		w.ints = make([]int, poolCount)
	}
	err := pl.pools[k].Take(pl.r.ctx, w.ints)
	out := outcome{class: uint8(k), name: "pool.take." + sigmaSuffixes[k].suffix}
	if err == nil && inSupport(w.ints, 0, pl.support[k]) {
		out.ok = true
		pl.prefixes[k].add(w.ints)
	}
	return out
}

func (pl *poolLoad) checkGOF() {
	for k, s := range poolSigmas {
		checkGOF(pl.r, "pool σ="+s, pl.prefixes[k])
	}
}

func poolEndToEnd(r *run) error {
	var setups []float64
	for range setupRuns {
		d, err := timePoolSetup(r.ctx)
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
	}
	r.set("setup_s", median(setups))
	pl, err := newPoolLoad(r)
	if err != nil {
		return err
	}
	defer pl.close()
	warm := runPhase(phase{name: "warmup", dur: r.warmup()}, 0, r.epoch, pl.op)
	r.account(warm)
	m := runPhase(phase{name: "measured", dur: r.measured()}, warm.next, r.epoch, pl.op)
	r.account(m)
	setE2E(r, m)
	rss, err := peakRSSMB(0)
	if err != nil {
		return err
	}
	r.set("rss_peak_mb", rss)
	pl.checkGOF()
	return nil
}

func poolLayers(r *run) error {
	pl, err := newPoolLoad(r)
	if err != nil {
		return err
	}
	defer pl.close()
	// Target 0 is the traced side (spans recorded around each Take),
	// target 1 the untraced one.
	warm := runPhase(phase{name: "warmup", dur: r.warmup(), alternate: true}, 0, r.epoch, pl.op)
	r.account(warm)
	traced := runPhase(phase{name: "traced", dur: r.traced(), alternate: true, traced: true}, warm.next, r.epoch, pl.op)
	r.account(traced)
	setTraced(r, traced)
	pl.checkGOF()

	// The pool has no server layer of its own; its server.* metrics come
	// from the same mix sent as /v1/samples to a traced daemon (the
	// served twin), on the daemon that then runs the tier probe.
	pd, err := startProbeDaemon(r)
	if err != nil {
		return err
	}
	defer pd.stop()
	bodies := make([][]byte, len(poolSigmas))
	for k, s := range poolSigmas {
		bodies[k] = []byte(fmt.Sprintf(`{"count":%d,"sigma":%q}`, poolCount, s))
	}
	twin := runPhase(phase{name: "twin", dur: r.traced() / 2, traced: true}, 0, r.epoch, func(w *worker, i int, _ int) outcome {
		k := int(pick(r.seed, streamKind, i) & 1)
		rep, err := r.post(w, pd.url+"/v1/samples", bodies[k])
		ok := err == nil && rep.status == http.StatusOK && countSamples(rep.body) == poolCount && partitionOK(rep.stages)
		return outcome{class: uint8(k), ok: ok, name: "twin.samples." + sigmaSuffixes[k].suffix, request: rep.trace, stages: rep.stages}
	})
	r.account(twin)
	setServerStages(r, twin.spans)
	if err := tierProbe(r, pd); err != nil {
		return err
	}
	return setPlans(r, pd)
}

// ---- HTTP workloads: ctgaussd as a child process ----

// httpLoad is one HTTP workload's traffic and checks.
type httpLoad struct {
	args []string // daemon flags beyond commonDaemonArgs
	rate float64  // > 0: open loop at this many requests per second
	// prepare runs against each fresh daemon before warm-up.
	prepare func(w *worker, d *daemon) error
	op      func(w *worker, i int, d *daemon) outcome
	// warmed reports whether warm-up may end (nil: after the fixed time).
	warmed func(d *daemon) (bool, error)
	finish func()
}

func httpWorkloadDef(name string, newLoad func(r *run) *httpLoad) *workloadDef {
	return &workloadDef{
		name:     name,
		endToEnd: func(r *run) error { return httpEndToEnd(r, newLoad(r)) },
		layers:   func(r *run) error { return httpLayers(r, newLoad(r)) },
	}
}

// phase builds one load phase of this workload; with alternate set it
// alternates between the two daemons of a trace run.
func (hl *httpLoad) phase(r *run, name string, salt uint64, dur time.Duration, alternate bool) phase {
	p := phase{name: name, dur: dur, alternate: alternate}
	if hl.rate > 0 {
		p.arrivals = poissonArrivals(r.seed^salt*0x9e3779b97f4a7c15, hl.rate, dur)
	}
	return p
}

// warmUp runs the fixed warm-up over ds (one daemon, or a trace run's
// traced and untraced pair) and then, while any daemon is not yet
// warmed, further short phases (30s at most).
func (hl *httpLoad) warmUp(r *run, ds []*daemon) (int, error) {
	op := hl.opOn(ds)
	alternate := len(ds) == 2
	res := runPhase(hl.phase(r, "warmup", 1, r.warmup(), alternate), 0, r.epoch, op)
	r.account(res)
	next := res.next
	deadline := time.Now().Add(30 * time.Second)
	for salt := uint64(2); hl.warmed != nil; salt++ {
		done := true
		for _, d := range ds {
			ok, err := hl.warmed(d)
			if err != nil {
				return 0, err
			}
			done = done && ok
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("%s: daemon not warmed after 30s of warm-up", r.workload)
		}
		res = runPhase(hl.phase(r, "warmup", salt, 4*sliceLen, alternate), next, r.epoch, op)
		r.account(res)
		next = res.next
	}
	return next, nil
}

// opOn sends each operation to the daemon its target index names.
func (hl *httpLoad) opOn(ds []*daemon) opFunc {
	return func(w *worker, i int, target int) outcome { return hl.op(w, i, ds[target]) }
}

func daemonArgs(hl *httpLoad, extra ...string) []string {
	args := append(append([]string(nil), commonDaemonArgs...), hl.args...)
	return append(args, extra...)
}

func httpEndToEnd(r *run, hl *httpLoad) error {
	// setupRuns cold starts one after another; the last daemon serves.
	var setups []float64
	var d *daemon
	for i := range setupRuns {
		d.stop()
		var err error
		if d, err = startDaemon(r.ctx, r.daemonBin, r.workdir, fmt.Sprintf("%s-%d", r.workload, i), daemonArgs(hl)); err != nil {
			return err
		}
		setups = append(setups, d.setup.Seconds())
	}
	defer d.stop()
	r.set("setup_s", median(setups))
	if err := hl.prepare(&worker{}, d); err != nil {
		return err
	}
	ds := []*daemon{d}
	next, err := hl.warmUp(r, ds)
	if err != nil {
		return err
	}
	m := runPhase(hl.phase(r, "measured", 100, r.measured(), false), next, r.epoch, hl.opOn(ds))
	r.account(m)
	setE2E(r, m)
	rss, err := peakRSSMB(d.cmd.Process.Pid)
	if err != nil {
		return err
	}
	r.set("rss_peak_mb", rss)
	hl.finish()
	return nil
}

// httpLayers runs the traced phase against two daemons, one started with
// -trace (target 0) and one without (target 1), alternating between them.
func httpLayers(r *run, hl *httpLoad) error {
	var traced, plain *daemon
	var errT, errP error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		traced, errT = startDaemon(r.ctx, r.daemonBin, r.workdir, r.workload+"-traced", daemonArgs(hl, "-trace"))
	}()
	go func() {
		defer wg.Done()
		plain, errP = startDaemon(r.ctx, r.daemonBin, r.workdir, r.workload+"-untraced", daemonArgs(hl))
	}()
	wg.Wait()
	defer traced.stop()
	defer plain.stop()
	if errT != nil {
		return errT
	}
	if errP != nil {
		return errP
	}
	ds := []*daemon{traced, plain}
	for _, d := range ds {
		if err := hl.prepare(&worker{}, d); err != nil {
			return err
		}
	}
	next, err := hl.warmUp(r, ds)
	if err != nil {
		return err
	}
	p := hl.phase(r, "traced", 100, r.traced(), true)
	p.traced = true
	res := runPhase(p, next, r.epoch, hl.opOn(ds))
	r.account(res)
	setTraced(r, res)
	setServerStages(r, res.spans)
	if err := setPlans(r, traced); err != nil {
		return err
	}
	traced.stop()
	plain.stop()
	hl.finish()

	pd, err := startProbeDaemon(r)
	if err != nil {
		return err
	}
	defer pd.stop()
	return tierProbe(r, pd)
}

// setPlans reads the convolution plans the serving daemon holds.
func setPlans(r *run, d *daemon) error {
	m, err := scrape(r.client, d.url)
	if err != nil {
		return err
	}
	r.set("convolve.plans", m["ctgaussd_arbitrary_plans"])
	return nil
}

// httpCheck turns a reply into an outcome: status 200, a partitioned
// stage trailer when traced, and the workload's own output check.
func httpCheck(rep reply, err error, class uint8, name string, valid func(reply) bool) outcome {
	out := outcome{class: class, name: name, request: rep.trace, stages: rep.stages}
	out.ok = err == nil && rep.status == http.StatusOK && partitionOK(rep.stages) && valid(rep)
	return out
}

// samplesResponse is the part of the /v1/samples and /v1/arbitrary
// replies the checks read.
type samplesResponse struct {
	Count   int   `json:"count"`
	Samples []int `json:"samples"`
}

// checkSamples fully decodes a sampling reply and checks its count and
// support, feeding the distribution prefix; other replies get a byte
// count.
func checkSamples(body []byte, decode bool, count int, sigma, mu float64, pre *prefix) bool {
	if !decode {
		return countSamples(body) == count
	}
	var resp samplesResponse
	if err := json.Unmarshal(body, &resp); err != nil || resp.Count != count || len(resp.Samples) != count {
		return false
	}
	if !inSupport(resp.Samples, mu, math.Ceil(13*sigma+math.Abs(mu))) {
		return false
	}
	if pre != nil {
		pre.add(resp.Samples)
	}
	return true
}

// samplesRate is the http-samples arrival rate, fixed so the offered
// load never changes with the code under test: about 30% of the mix's
// closed-loop capacity on the benchmark box when the benchmark was
// defined (half capacity gave a much wider run-to-run latency spread).
const samplesRate = 1000

func newSamplesLoad(r *run) *httpLoad {
	counts := []int{64, 4096}
	var bodies [2][2][]byte
	prefixes := make([]*prefix, len(poolSigmas))
	for s, sigma := range poolSigmas {
		sf, _ := strconv.ParseFloat(sigma, 64)
		prefixes[s] = newPrefix(sf, 0)
		for c, n := range counts {
			bodies[s][c] = []byte(fmt.Sprintf(`{"count":%d,"sigma":%q}`, n, sigma))
		}
	}
	return &httpLoad{
		args:    []string{"-sigmas", "2,6.15543", "-falcon-n", "0"},
		rate:    samplesRate,
		prepare: func(*worker, *daemon) error { return nil },
		op: func(w *worker, i int, d *daemon) outcome {
			k := pick(r.seed, streamKind, i)
			s, c := int(k&1), int(k>>1&1)
			decode := pick(r.seed, streamDecode, i)%decodeShare == 0
			rep, err := r.post(w, d.url+"/v1/samples", bodies[s][c])
			return httpCheck(rep, err, uint8(c), "http.samples", func(rep reply) bool {
				return checkSamples(rep.body, decode, counts[c], prefixes[s].sigma, 0, prefixes[s])
			})
		},
		finish: func() {
			for s, sigma := range poolSigmas {
				checkGOF(r, "http-samples σ="+sigma, prefixes[s])
			}
		},
	}
}

// The http-arbitrary mix: 60% of requests draw the hot key (σ=3.3, μ=0),
// the rest one of arbKeys seeded (σ, μ) keys.
const (
	hotSigma  = 3.3
	hotShare  = 0.6
	arbKeys   = 2048
	arbCount  = 1024
	arbMinSig = 0.9
	arbMaxSig = 4096
)

type arbKey struct{ sigma, mu float64 }

// body is the /v1/arbitrary request for count samples of k.
func (k arbKey) body(count int) []byte {
	return []byte(fmt.Sprintf(`{"count":%d,"sigma":%s,"mu":%s}`, count,
		strconv.FormatFloat(k.sigma, 'g', -1, 64), strconv.FormatFloat(k.mu, 'g', -1, 64)))
}

// arbitraryKeys is the seeded spread list: σ log-uniform in
// [arbMinSig, arbMaxSig], μ uniform in [−0.5, 0.5).
func arbitraryKeys(seed uint64) []arbKey {
	rng := rand.New(rand.NewPCG(seed, 0x6b657973))
	keys := make([]arbKey, arbKeys)
	for j := range keys {
		sigma := math.Exp(math.Log(arbMinSig) + rng.Float64()*(math.Log(arbMaxSig)-math.Log(arbMinSig)))
		keys[j] = arbKey{sigma: sigma, mu: rng.Float64() - 0.5}
	}
	return keys
}

func newArbitraryLoad(r *run) *httpLoad {
	keys := arbitraryKeys(r.seed)
	bodies := make([][]byte, len(keys))
	for j, k := range keys {
		bodies[j] = k.body(arbCount)
	}
	hot := []byte(fmt.Sprintf(`{"count":%d,"sigma":%g}`, arbCount, hotSigma))
	hotPrefix := newPrefix(hotSigma, 0)
	return &httpLoad{
		args: []string{"-falcon-n", "0", "-tier-promote-rps", "20000", "-tier-window", "2s"},
		// Every spread key is requested once before warm-up, so the
		// daemon holds all arbKeys plans however fast the code under
		// test serves.
		prepare: func(_ *worker, d *daemon) error {
			var failed atomic.Int64
			parallel(len(keys), func(w *worker, j int) {
				rep, err := r.post(w, d.url+"/v1/arbitrary", keys[j].body(1))
				if err != nil || rep.status != http.StatusOK || countSamples(rep.body) != 1 {
					failed.Add(1)
				}
			})
			r.attempted += int64(len(keys))
			r.failed += failed.Load()
			return nil
		},
		op: func(w *worker, i int, d *daemon) outcome {
			decode := pick(r.seed, streamDecode, i)%decodeShare == 0
			if unit(pick(r.seed, streamKind, i)) < hotShare {
				rep, err := r.post(w, d.url+"/v1/arbitrary", hot)
				return httpCheck(rep, err, classLight, "http.arbitrary.hot", func(rep reply) bool {
					return checkSamples(rep.body, decode, arbCount, hotSigma, 0, hotPrefix)
				})
			}
			j := pick(r.seed, streamItem, i) % arbKeys
			k := keys[j]
			rep, err := r.post(w, d.url+"/v1/arbitrary", bodies[j])
			return httpCheck(rep, err, classHeavy, "http.arbitrary.spread", func(rep reply) bool {
				return checkSamples(rep.body, decode, arbCount, k.sigma, k.mu, nil)
			})
		},
		warmed: func(d *daemon) (bool, error) { return hotPromoted(r, d) },
		finish: func() { checkGOF(r, fmt.Sprintf("http-arbitrary hot σ=%g", hotSigma), hotPrefix) },
	}
}

// hotPromoted reports whether the daemon's tier controller serves the hot
// key from a compiled pool.
func hotPromoted(r *run, d *daemon) (bool, error) {
	resp, err := r.client.Get(d.url + "/healthz")
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	var h struct {
		Tier *struct {
			Keys []struct {
				Sigma float64 `json:"sigma"`
				State string  `json:"state"`
			} `json:"keys"`
		} `json:"tier"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return false, err
	}
	if h.Tier == nil {
		return false, fmt.Errorf("daemon at %s runs without tiering", d.url)
	}
	for _, k := range h.Tier.Keys {
		if k.Sigma == hotSigma && k.State == "compiled" {
			return true, nil
		}
	}
	return false, nil
}

// The http-falcon mix: sign:verify = 1:3 over seeded 32–256-byte
// messages; verifies reuse signatures made before warm-up, and one in
// tamperShare carries a flipped message bit and must be rejected.
const (
	falconMessages = 256
	falconSigned   = 64
	signShare      = 0.25
	tamperShare    = 16
)

func newFalconLoad(r *run) *httpLoad {
	rng := rand.New(rand.NewPCG(r.seed, 0x6d736773))
	msgs := make([][]byte, falconMessages)
	signBodies := make([][]byte, falconMessages)
	for j := range msgs {
		msgs[j] = make([]byte, 32+rng.IntN(225))
		for b := range msgs[j] {
			msgs[j][b] = byte(rng.Uint32())
		}
		signBodies[j] = []byte(fmt.Sprintf(`{"message":%q}`, base64.StdEncoding.EncodeToString(msgs[j])))
	}
	var pk *falcon.PublicKey
	var verifyBodies [2][][]byte // [tampered][signed message]
	return &httpLoad{
		args: []string{"-falcon-n", "512", "-arbitrary=false"},
		prepare: func(w *worker, d *daemon) error {
			if pk != nil {
				return nil // both trace-run daemons share the dev-seed key
			}
			req, err := http.NewRequestWithContext(r.ctx, http.MethodGet, d.url+"/v1/falcon/key", nil)
			if err != nil {
				return err
			}
			rep, err := r.do(w, req)
			if err != nil {
				return err
			}
			var key struct {
				PublicKey string `json:"public_key"`
			}
			if err := json.Unmarshal(rep.body, &key); err != nil {
				return fmt.Errorf("/v1/falcon/key: %w", err)
			}
			raw, err := base64.StdEncoding.DecodeString(key.PublicKey)
			if err != nil {
				return err
			}
			if pk, err = falcon.DecodePublic(raw); err != nil {
				return err
			}
			sigs := make([]string, falconSigned)
			var failed atomic.Int64
			parallel(falconSigned, func(w *worker, j int) {
				rep, err := r.post(w, d.url+"/v1/falcon/sign", signBodies[j])
				var resp struct {
					Signature string `json:"signature"`
				}
				if err != nil || rep.status != http.StatusOK || json.Unmarshal(rep.body, &resp) != nil {
					failed.Add(1)
					return
				}
				sigs[j] = resp.Signature
			})
			r.attempted += falconSigned
			r.failed += failed.Load()
			for j, sig := range sigs {
				tampered := append([]byte(nil), msgs[j]...)
				tampered[int(pick(r.seed, streamTamper, j)%uint64(len(tampered)))] ^= 1
				for t, m := range [][]byte{msgs[j], tampered} {
					verifyBodies[t] = append(verifyBodies[t], []byte(fmt.Sprintf(`{"message":%q,"signature":%q}`,
						base64.StdEncoding.EncodeToString(m), sig)))
				}
			}
			return nil
		},
		op: func(w *worker, i int, d *daemon) outcome {
			if unit(pick(r.seed, streamKind, i)) < signShare {
				j := pick(r.seed, streamItem, i) % falconMessages
				decode := pick(r.seed, streamDecode, i)%decodeShare == 0
				rep, err := r.post(w, d.url+"/v1/falcon/sign", signBodies[j])
				return httpCheck(rep, err, classHeavy, "http.falcon.sign", func(rep reply) bool {
					var resp struct {
						Signature string `json:"signature"`
					}
					if json.Unmarshal(rep.body, &resp) != nil || resp.Signature == "" {
						return false
					}
					if !decode {
						return true
					}
					raw, err := base64.StdEncoding.DecodeString(resp.Signature)
					if err != nil {
						return false
					}
					sig, err := falcon.DecodeSignature(raw)
					return err == nil && pk.Verify(msgs[j], sig) == nil
				})
			}
			j := pick(r.seed, streamItem, i) % falconSigned
			t := 0
			if pick(r.seed, streamTamper, i)%tamperShare == 0 {
				t = 1
			}
			rep, err := r.post(w, d.url+"/v1/falcon/verify", verifyBodies[t][j])
			return httpCheck(rep, err, classLight, "http.falcon.verify", func(rep reply) bool {
				var resp struct {
					Valid bool `json:"valid"`
				}
				return json.Unmarshal(rep.body, &resp) == nil && resp.Valid == (t == 0)
			})
		},
		finish: func() {},
	}
}

// parallel runs fn for 0..n-1 from the load goroutines.
func parallel(n int, fn func(w *worker, j int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := &worker{}
			for j := int(next.Add(1) - 1); j < n; j = int(next.Add(1) - 1) {
				fn(w, j)
			}
		}()
	}
	wg.Wait()
}
