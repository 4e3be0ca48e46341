package server

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"ctgauss"
	"ctgauss/internal/bitslice/dispatch"
	"ctgauss/internal/obs"
	"ctgauss/internal/tier"
)

// endpointMetrics counts one endpoint's traffic.
type endpointMetrics struct {
	name      string
	requests  atomic.Uint64 // requests admitted past the drain gate AND the queue
	errors    atomic.Uint64 // responses with status ≥ 400 (excluding 429 and 499)
	rejected  atomic.Uint64 // 429 backpressure rejections
	refused   atomic.Uint64 // 503 drain-gate refusals
	cancelled atomic.Uint64 // requests abandoned by cancellation or deadline
	inflight  atomic.Int64
	lat       obs.Histogram // request latency, log2 buckets
}

// metrics is the server-wide counter set exported at /metrics.
type metrics struct {
	endpoints []*endpointMetrics // fixed at construction; scrape iterates
	samples   atomic.Uint64      // Gaussian samples served
	signs     atomic.Uint64      // signatures produced
	verifies  atomic.Uint64      // verification requests evaluated

	// Per-tier ledgers of the free-form serving path: every /v1/arbitrary
	// and free-form /v1/samples sample lands in exactly one of the two.
	// The nanos ledgers hold the time spent inside the sampler call
	// itself (pool.Take or arb.NextBatch) — transport excluded — so
	// Δseconds/Δsamples is the serving-path sampling cost a promotion
	// changes, comparable across tiers.
	tierCompiledSamples  atomic.Uint64
	tierConvolvedSamples atomic.Uint64
	tierCompiledNanos    atomic.Uint64
	tierConvolvedNanos   atomic.Uint64
}

func newMetrics(endpointNames []string) *metrics {
	m := &metrics{}
	for _, n := range endpointNames {
		m.endpoints = append(m.endpoints, &endpointMetrics{name: n})
	}
	return m
}

func (m *metrics) endpoint(name string) *endpointMetrics {
	for _, e := range m.endpoints {
		if e.name == name {
			return e
		}
	}
	return nil
}

// index returns the endpoint's position in the registration order —
// the same order the obs.Observer was built with.
func (m *metrics) index(name string) int {
	for i, e := range m.endpoints {
		if e.name == name {
			return i
		}
	}
	return -1
}

// sigmaStats is one precompiled σ pool's telemetry joined into the
// scrape: the pool engine's unified ledger plus the pool's width and
// per-shard state.
type sigmaStats struct {
	ctgauss.EngineStats
	sigma            string
	batchesPerRefill int
	health           []ctgauss.ShardHealth
}

func poolStats(sigma string, pool *ctgauss.Pool) sigmaStats {
	return sigmaStats{
		EngineStats:      pool.EngineStats(),
		sigma:            sigma,
		batchesPerRefill: pool.Stats().BatchesPerRefill,
		health:           pool.Health(),
	}
}

// arbStats is the free-form path's state joined into the scrape: the
// convolution sampler's counters and the key table, whose per-σ
// lifetime totals are the per-σ ledger.
type arbStats struct {
	trials, accepted uint64
	shards           int

	producerRestarts uint64
	refillsDiscarded uint64
	shardsPoisoned   int

	// health is the merged per-shard base-engine state; its buffered
	// refills are exported under sigma="arbitrary" with the pools' ring
	// gauges.
	health []ctgauss.ShardHealth

	table tier.Stats
	keys  []tier.KeyInfo // sorted by σ
}

func newArbStats(arb *ctgauss.Arbitrary, tc *tier.Controller) *arbStats {
	st := arb.Stats()
	out := &arbStats{
		trials:   st.Trials,
		accepted: st.Accepted,
		shards:   st.Shards,
		health:   arb.Health(),
		table:    tc.Stats(),
		keys:     tc.Snapshot(),
	}
	for _, h := range out.health {
		out.producerRestarts += h.Restarts
		out.refillsDiscarded += h.DiscardedRefills
		if h.Poisoned {
			out.shardsPoisoned++
		}
	}
	return out
}

// scrapeData bundles everything one /metrics render needs beyond the
// counter set itself.
type scrapeData struct {
	sigmas   []sigmaStats
	arb      *arbStats // nil when the arbitrary layer is disabled
	tiering  bool      // render the ctgaussd_tier_* families (arb is then set)
	prng     string    // the resolved sampling PRNG
	draining bool
	uptime   time.Duration
	stages   []obs.StageScrape // nil when tracing is disabled
}

// promFamily collects one metric family's samples before emission.
// Rows keep insertion order (callers insert from sorted inputs);
// families themselves are emitted sorted by name.
type promFamily struct {
	name, kind, help string
	rows             []promRow
}

// promRow is one sample line; name differs from the family name only
// for histogram _bucket/_sum/_count samples.
type promRow struct {
	name   string
	labels string // rendered label block including braces, or ""
	value  string
}

func (f *promFamily) row(labels, value string) {
	f.rows = append(f.rows, promRow{name: f.name, labels: labels, value: value})
}

func (f *promFamily) rowf(labels, format string, args ...any) {
	f.row(labels, fmt.Sprintf(format, args...))
}

// suffixRow adds a histogram sub-sample (family name + suffix).
func (f *promFamily) suffixRow(suffix, labels, value string) {
	f.rows = append(f.rows, promRow{name: f.name + suffix, labels: labels, value: value})
}

// promSet accumulates families and writes them sorted by name — the
// deterministic-scrape guarantee: two scrapes of the same server state
// render byte-identically, and family order never depends on code
// order or map iteration.
type promSet struct {
	byName map[string]*promFamily
}

func newPromSet() *promSet { return &promSet{byName: make(map[string]*promFamily)} }

// family registers (or revisits) a family.  Revisiting with a
// different kind is a programming error caught loudly: duplicate
// # TYPE lines are exactly what the metrics lint rejects.
func (ps *promSet) family(name, kind, help string) *promFamily {
	if f, ok := ps.byName[name]; ok {
		if f.kind != kind {
			panic(fmt.Sprintf("metrics: family %s redeclared as %s (was %s)", name, kind, f.kind))
		}
		return f
	}
	f := &promFamily{name: name, kind: kind, help: help}
	ps.byName[name] = f
	return f
}

func (ps *promSet) writeTo(w io.Writer) {
	names := make([]string, 0, len(ps.byName))
	for n := range ps.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		f := ps.byName[n]
		fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind)
		for _, r := range f.rows {
			fmt.Fprintf(w, "%s%s %s\n", r.name, r.labels, r.value)
		}
	}
}

// stageBucketIdx selects which log2 bucket boundaries the stage
// histograms expose as Prometheus le bounds: every other power of two
// from 256ns (2^8) to ~17s (2^34).  The in-memory resolution stays
// full; adjacent buckets merge into the coarser cumulative counts.
var stageBucketIdx = []int{8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30, 32, 34}

// writePrometheus renders the whole counter set in Prometheus text
// exposition format, families sorted by name.
func (m *metrics) writePrometheus(w io.Writer, d scrapeData) {
	ps := newPromSet()
	epLabel := func(name string) string { return fmt.Sprintf("{endpoint=%q}", name) }

	f := ps.family("ctgaussd_requests_total", "counter", "Requests admitted per endpoint (past the drain gate and the admission queue; 429 rejections are counted separately).")
	for _, e := range m.endpoints {
		f.rowf(epLabel(e.name), "%d", e.requests.Load())
	}
	f = ps.family("ctgaussd_errors_total", "counter", "Responses with status >= 400, excluding backpressure rejections.")
	for _, e := range m.endpoints {
		f.rowf(epLabel(e.name), "%d", e.errors.Load())
	}
	f = ps.family("ctgaussd_rejected_total", "counter", "Requests rejected with 429 (admission queue full).")
	for _, e := range m.endpoints {
		f.rowf(epLabel(e.name), "%d", e.rejected.Load())
	}
	f = ps.family("ctgaussd_drain_refused_total", "counter", "Requests refused with 503 at the drain gate during shutdown.")
	for _, e := range m.endpoints {
		f.rowf(epLabel(e.name), "%d", e.refused.Load())
	}
	f = ps.family("ctgaussd_requests_cancelled_total", "counter", "Requests abandoned by client cancellation or the per-request deadline.")
	for _, e := range m.endpoints {
		f.rowf(epLabel(e.name), "%d", e.cancelled.Load())
	}
	f = ps.family("ctgaussd_inflight", "gauge", "Requests currently being served per endpoint.")
	for _, e := range m.endpoints {
		f.rowf(epLabel(e.name), "%d", e.inflight.Load())
	}

	f = ps.family("ctgaussd_latency_seconds", "gauge", "Request latency quantiles per endpoint (log2-bucket upper bounds).")
	for _, e := range m.endpoints {
		lat := e.lat.Snapshot()
		for _, q := range []float64{0.5, 0.99} {
			f.rowf(fmt.Sprintf("{endpoint=%q,quantile=%q}", e.name, fmt.Sprintf("%g", q)), "%g", float64(lat.Quantile(q))/1e9)
		}
		if lat.Count > 0 {
			mean := float64(lat.SumNs) / float64(lat.Count) / 1e9
			f.rowf(fmt.Sprintf("{endpoint=%q,quantile=\"mean\"}", e.name), "%g", mean)
		}
	}

	ps.family("ctgaussd_samples_served_total", "counter", "Gaussian samples returned to clients.").rowf("", "%d", m.samples.Load())
	ps.family("ctgaussd_signatures_total", "counter", "Falcon signatures produced.").rowf("", "%d", m.signs.Load())
	ps.family("ctgaussd_verifies_total", "counter", "Falcon verifications evaluated.").rowf("", "%d", m.verifies.Load())

	sigmas := d.sigmas
	sort.Slice(sigmas, func(i, j int) bool { return sigmas[i].sigma < sigmas[j].sigma })
	sigLabel := func(sigma string) string { return fmt.Sprintf("{sigma=%q}", sigma) }
	// One "batch" is the pool's native 64-sample granularity; the engine
	// ledger counts samples exactly, so the batch counter advances once
	// per 64 consumed, and refills started × batches per refill
	// reconciles with it, as the coalescing test pins.
	f = ps.family("ctgaussd_batches_total", "counter", "64-sample batches consumed from the pool's engine per sigma (served samples / 64).")
	for _, s := range sigmas {
		f.rowf(sigLabel(s.sigma), "%d", s.SamplesServed/64)
	}
	f = ps.family("ctgaussd_refills_total", "counter", "Circuit evaluations whose output entered the served stream per sigma (prefetch lookahead counts on first consumption; see _refills_produced_total).")
	for _, s := range sigmas {
		f.rowf(sigLabel(s.sigma), "%d", s.RefillsStarted)
	}
	f = ps.family("ctgaussd_pool_samples_total", "counter", "Samples consumed from the pool's engine per sigma (exactly what clients were served).")
	for _, s := range sigmas {
		f.rowf(sigLabel(s.sigma), "%d", s.SamplesServed)
	}
	f = ps.family("ctgaussd_batches_per_refill", "gauge", "Evaluation width of the pool's engine (batches per refill).")
	for _, s := range sigmas {
		f.rowf(sigLabel(s.sigma), "%d", s.batchesPerRefill)
	}
	f = ps.family("ctgaussd_pool_shards", "gauge", "Shard count of the per-sigma sampling pool.")
	for _, s := range sigmas {
		f.rowf(sigLabel(s.sigma), "%d", s.Shards)
	}
	f = ps.family("ctgaussd_prefetch_depth", "gauge", "Refill lookahead per shard (double buffering).")
	for _, s := range sigmas {
		f.rowf(sigLabel(s.sigma), "%d", s.Prefetch)
	}
	f = ps.family("ctgaussd_refills_produced_total", "counter", "Circuit evaluations completed by the refill producers, including lookahead not yet consumed (>= ctgaussd_refills_total).")
	for _, s := range sigmas {
		f.rowf(sigLabel(s.sigma), "%d", s.RefillsProduced)
	}
	f = ps.family("ctgaussd_prefetch_hits_total", "counter", "Draws served without waiting for a refill (the engine ring held data).")
	for _, s := range sigmas {
		f.rowf(sigLabel(s.sigma), "%d", s.PrefetchHits)
	}
	f = ps.family("ctgaussd_prefetch_misses_total", "counter", "Draws that waited on a producer (async) or evaluated inline (sync).")
	for _, s := range sigmas {
		f.rowf(sigLabel(s.sigma), "%d", s.PrefetchMisses)
	}

	// Fault-isolation telemetry: the arbitrary layer's base engines are
	// reported under sigma="arbitrary" so one series covers every engine
	// in the process.
	f = ps.family("ctgaussd_engine_producer_restarts_total", "counter", "Refill panics recovered per pool (the producer restarted after backoff).")
	for _, s := range sigmas {
		f.rowf(sigLabel(s.sigma), "%d", s.ProducerRestarts)
	}
	if d.arb != nil {
		f.rowf(sigLabel("arbitrary"), "%d", d.arb.producerRestarts)
	}
	f = ps.family("ctgaussd_engine_refills_discarded_total", "counter", "Refills abandoned by a panicking fill per pool (never served).")
	for _, s := range sigmas {
		f.rowf(sigLabel(s.sigma), "%d", s.RefillsDiscarded)
	}
	if d.arb != nil {
		f.rowf(sigLabel("arbitrary"), "%d", d.arb.refillsDiscarded)
	}
	f = ps.family("ctgaussd_engine_shards_poisoned", "gauge", "Shards currently poisoned per pool (producer restarting or dead; draws fail over meanwhile).")
	for _, s := range sigmas {
		f.rowf(sigLabel(s.sigma), "%d", s.ShardsPoisoned)
	}
	if d.arb != nil {
		f.rowf(sigLabel("arbitrary"), "%d", d.arb.shardsPoisoned)
	}

	// Ring occupancy: how far ahead each shard's producer is right now.
	// The arbitrary layer's base engines merge (sum) across members
	// under sigma="arbitrary".
	f = ps.family("ctgaussd_engine_ring_buffered", "gauge", "Completed refills buffered ahead of demand per pool shard (0 under sustained load = consumers at refill speed).")
	ringRows := func(label string, hs []ctgauss.ShardHealth) {
		for i, h := range hs {
			f.rowf(fmt.Sprintf("{sigma=%q,shard=\"%d\"}", label, i), "%d", h.Buffered)
		}
	}
	for _, s := range sigmas {
		ringRows(s.sigma, s.health)
	}
	if d.arb != nil {
		ringRows("arbitrary", d.arb.health)
	}

	if arb := d.arb; arb != nil {
		ps.family("ctgaussd_arbitrary_samples_total", "counter", "Samples served on the free-form (sigma, mu) path, both tiers.").rowf("", "%d", m.tierCompiledSamples.Load()+m.tierConvolvedSamples.Load())
		ps.family("ctgaussd_arbitrary_trials_total", "counter", "Combine/round trials evaluated by the convolution layer.").rowf("", "%d", arb.trials)
		ps.family("ctgaussd_arbitrary_accepted_total", "counter", "Trials accepted by the randomized-rounding step.").rowf("", "%d", arb.accepted)
		ps.family("ctgaussd_arbitrary_sigmas", "gauge", "Sigma values tracked now in the bounded key table (evicted keys drop out; see _sigmas_overflow).").rowf("", "%d", arb.table.TrackedKeys)
		overflow := 0
		if arb.table.Overflow {
			overflow = 1
		}
		ps.family("ctgaussd_arbitrary_sigmas_overflow", "gauge", "Whether a new sigma was dropped because the key table was full and no key was cold.").rowf("", "%d", overflow)
		ps.family("ctgaussd_arbitrary_plans", "gauge", "Sigma values tracked in the key table; plans are no longer stored (each request looks its plan up in a fixed menu).").rowf("", "%d", arb.table.TrackedKeys)
		ps.family("ctgaussd_arbitrary_shards", "gauge", "Shard count of the arbitrary sampler.").rowf("", "%d", arb.shards)
		f = ps.family("ctgaussd_arbitrary_sigma_samples_total", "counter", "Samples served per tracked free-form sigma, both tiers and any mu (see _sigmas_overflow).")
		for _, k := range arb.keys {
			f.rowf(sigLabel(tier.SigmaString(k.Sigma)), "%d", k.Samples)
		}
	}

	if d.tiering {
		arb := d.arb
		f = ps.family("ctgaussd_tier_samples_total", "counter", "Free-form samples served per tier (compiled = promoted pool, convolved = convolution fallback).")
		f.rowf("{tier=\"compiled\"}", "%d", m.tierCompiledSamples.Load())
		f.rowf("{tier=\"convolved\"}", "%d", m.tierConvolvedSamples.Load())
		f = ps.family("ctgaussd_tier_sample_seconds_total", "counter", "Time spent inside the sampler per tier (pool.Take / convolution draw; transport excluded — divide by _tier_samples_total for ns-per-sample).")
		f.rowf("{tier=\"compiled\"}", "%g", float64(m.tierCompiledNanos.Load())/1e9)
		f.rowf("{tier=\"convolved\"}", "%g", float64(m.tierConvolvedNanos.Load())/1e9)
		ps.family("ctgaussd_tier_promotions_total", "counter", "Hot keys promoted onto compiled pools (build completed and installed).").rowf("", "%d", arb.table.Promotions)
		ps.family("ctgaussd_tier_demotions_total", "counter", "Compiled keys demoted back to the convolved tier (drain started).").rowf("", "%d", arb.table.Demotions)
		ps.family("ctgaussd_tier_builds_failed_total", "counter", "Promotion builds that errored or panicked (key stayed convolved).").rowf("", "%d", arb.table.BuildsFailed)
		ps.family("ctgaussd_tier_builds_deferred_total", "counter", "Promotion ticks skipped while the base set was degraded.").rowf("", "%d", arb.table.BuildsDeferred)
		ps.family("ctgaussd_tier_pools", "gauge", "Compiled pools currently held by the tier controller (building + compiled + draining).").rowf("", "%d", arb.table.Pools)
		ps.family("ctgaussd_tier_pools_max", "gauge", "Compiled-pool budget.").rowf("", "%d", arb.table.MaxPools)
		f = ps.family("ctgaussd_tier_state", "gauge", "Tier state per tracked sigma, any mu (0=convolved, 1=building, 2=compiled, 3=draining).")
		for _, k := range arb.keys {
			f.rowf(sigLabel(tier.SigmaString(k.Sigma)), "%d", int32(k.State))
		}
	}

	// Per-stage request-time histograms (tracing enabled only): where a
	// request's wall time went, per endpoint.  Partition stages
	// (queue_wait, decode, route, coalesce, encode, other) sum to
	// total; engine_wait/eval/combine are sub-stages of coalesce.
	if len(d.stages) > 0 {
		f = ps.family("ctgaussd_stage_seconds", "histogram", "Per-stage request time by endpoint (partition stages sum to stage=\"total\"; engine_wait/eval/combine nest inside coalesce).")
		for _, sc := range d.stages {
			var cum uint64
			next := 0
			for _, bi := range stageBucketIdx {
				for ; next <= bi; next++ {
					cum += sc.Hist.Buckets[next]
				}
				le := float64(obs.BucketUpperNs(bi)) / 1e9
				f.suffixRow("_bucket",
					fmt.Sprintf("{stage=%q,endpoint=%q,le=%q}", sc.Stage, sc.Endpoint, fmt.Sprintf("%g", le)),
					fmt.Sprintf("%d", cum))
			}
			f.suffixRow("_bucket",
				fmt.Sprintf("{stage=%q,endpoint=%q,le=\"+Inf\"}", sc.Stage, sc.Endpoint),
				fmt.Sprintf("%d", sc.Hist.Count))
			f.suffixRow("_sum",
				fmt.Sprintf("{stage=%q,endpoint=%q}", sc.Stage, sc.Endpoint),
				fmt.Sprintf("%g", float64(sc.Hist.SumNs)/1e9))
			f.suffixRow("_count",
				fmt.Sprintf("{stage=%q,endpoint=%q}", sc.Stage, sc.Endpoint),
				fmt.Sprintf("%d", sc.Hist.Count))
		}
	}

	// Process-level telemetry: build identity, uptime, Go runtime.
	b := obs.Build()
	ps.family("ctgaussd_build_info", "gauge", "Build identity as labels (value is always 1).").
		rowf(fmt.Sprintf("{version=%q,go_version=%q,simd=%q,prng=%q}", b.Version, b.GoVersion, dispatch.Active().String(), d.prng), "1")
	ps.family("ctgaussd_uptime_seconds", "gauge", "Seconds since the server started.").rowf("", "%g", d.uptime.Seconds())
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ps.family("ctgaussd_go_goroutines", "gauge", "Live goroutines in the process.").rowf("", "%d", runtime.NumGoroutine())
	ps.family("ctgaussd_go_heap_alloc_bytes", "gauge", "Bytes of allocated heap objects.").rowf("", "%d", ms.HeapAlloc)
	ps.family("ctgaussd_go_heap_objects", "gauge", "Number of allocated heap objects.").rowf("", "%d", ms.HeapObjects)
	ps.family("ctgaussd_go_gc_pause_seconds_total", "counter", "Cumulative GC stop-the-world pause time.").rowf("", "%g", float64(ms.PauseTotalNs)/1e9)
	ps.family("ctgaussd_go_gc_cycles_total", "counter", "Completed GC cycles.").rowf("", "%d", ms.NumGC)

	dr := 0
	if d.draining {
		dr = 1
	}
	ps.family("ctgaussd_draining", "gauge", "Whether the server is draining (1) or accepting requests (0).").rowf("", "%d", dr)

	ps.writeTo(w)
}
