package main

// spec names one reported metric and its unit.  BENCHMARK.json lists the
// same names and units; ctbench_test.go keeps the two in step.
type spec struct{ name, unit string }

// endToEndSpecs are the metrics a user of the system sees, reported by
// every workload's untraced (trace 0) run.  heavy_p50_ms is the median
// of the workload's heavier request class (see README.md).
func endToEndSpecs() []spec {
	return []spec{
		{"setup_s", "s"},
		{"ops_per_s", "1/s"},
		{"latency_p50_ms", "ms"},
		{"latency_p90_ms", "ms"},
		{"heavy_p50_ms", "ms"},
		{"rss_peak_mb", "MB"},
	}
}

// sigmaSuffixes name the two served σ of the per-σ layer metrics.
var sigmaSuffixes = []struct{ suffix, sigma string }{
	{"sigma2", "2"},
	{"sigma6", "6.15543"},
}

// perLayerSpecs are the per-layer metrics every traced (trace 1) run
// reports, in sample-life order.
func perLayerSpecs() []spec {
	var out []spec
	perSigma := func(name, unit string) {
		for _, s := range sigmaSuffixes {
			out = append(out, spec{name + "." + s.suffix, unit})
		}
	}
	perSigma("prng.fill_ns_per_sample", "ns")
	perSigma("prng.unpack_ns_per_sample", "ns")
	perSigma("prng.bytes_per_sample", "bytes")
	out = append(out,
		spec{"prng.chacha20_MBps", "MB/s"},
		spec{"prng.aes-ctr_MBps", "MB/s"},
		spec{"prng.shake256_MBps", "MB/s"},
	)
	perSigma("bitslice.eval_ns_per_sample", "ns")
	perSigma("bitslice.word_ops_per_sample", "count")
	perSigma("bitslice.transpose_ns_per_sample", "ns")
	perSigma("sampler.refill_ns_per_sample", "ns")
	perSigma("sampler.other_ns_per_sample", "ns")
	perSigma("sampler.recon_error", "ratio")
	perSigma("engine.take_ns_per_sample", "ns")
	perSigma("engine.samples_per_refill", "count")
	perSigma("engine.prefetch_hit_ratio", "ratio")
	perSigma("engine.refill_utilization", "ratio")
	out = append(out,
		spec{"convolve.accept_rate", "ratio"},
		spec{"convolve.base_draws_per_trial", "count"},
		spec{"convolve.ns_per_sample.hot", "ns"},
		spec{"convolve.plans", "count"},
		spec{"convolve.combine_us", "us"},
		spec{"tier.promotion_s", "s"},
		spec{"tier.compiled_share", "ratio"},
		spec{"tier.compiled_ns_per_sample", "ns"},
		spec{"tier.convolved_ns_per_sample", "ns"},
		spec{"tier.route_us", "us"},
		spec{"server.queue_wait_us", "us"},
		spec{"server.decode_us", "us"},
		spec{"server.coalesce_us", "us"},
		spec{"server.encode_us", "us"},
		spec{"server.other_us", "us"},
		spec{"server.total_us", "us"},
		spec{"server.transport_us", "us"},
		spec{"server.trace_overhead_pct", "%"},
		spec{"falcon.sign_us", "us"},
		spec{"falcon.verify_us", "us"},
		spec{"falcon.decode_us", "us"},
		spec{"falcon.attempts_per_sig", "count"},
		spec{"falcon.keygen_s", "s"},
		spec{"registry.build_s", "s"},
		spec{"registry.load_s", "s"},
		spec{"loadgen.latency_p99_ms", "ms"},
		spec{"loadgen.light_p50_ms", "ms"},
		spec{"loadgen.late_p99_ms", "ms"},
		spec{"loadgen.requests", "count"},
	)
	return out
}

// setE2E sets the latency and throughput metrics of a measured phase,
// each the median over the phase's 1s windows (see windowLen).  setup_s
// and rss_peak_mb are set by the workload.
func setE2E(r *run, p *phaseResult) {
	checkLate(r, p)
	heavy := func(s sample) bool { return s.class == classHeavy }
	r.set("ops_per_s", p.windowRate())
	r.set("latency_p50_ms", p.windowQuantile(all, 0.5))
	r.set("latency_p90_ms", p.windowQuantile(all, 0.9))
	r.set("heavy_p50_ms", p.windowQuantile(heavy, 0.5))
}

// setTraced sets the metrics of a trace run's alternating traced phase:
// the traced/untraced latency overhead and the generator's own figures.
// The server stage means come from whichever daemon the caller passes.
func setTraced(r *run, p *phaseResult) {
	traced := p.latencies(func(s sample) bool { return s.target == 0 })
	untraced := p.latencies(func(s sample) bool { return s.target == 1 })
	r.set("server.trace_overhead_pct", 100*(quantile(traced, 0.5)/quantile(untraced, 0.5)-1))
	r.set("loadgen.latency_p99_ms", quantile(untraced, 0.99))
	r.set("loadgen.light_p50_ms", quantile(p.latencies(func(s sample) bool { return s.target == 1 && s.class == classLight }), 0.5))
	r.set("loadgen.late_p99_ms", checkLate(r, p))
	r.set("loadgen.requests", float64(len(p.samples)))
}

// maxLateP50 is the median generator lag above which a run is invalid:
// its open-loop sends no longer follow the seeded schedule.  The median
// is gated, not the tail.  A send that sleeps through the Go netpoller
// is about 0.6ms late at the median; these sends are about 0.013ms late.
// The p99 follows the host instead: it read 0.25–0.35ms on a quiet box
// and 1.2–1.4ms on a busy one.
const maxLateP50 = 0.25 // ms

// checkLate checks the median generator lag and returns its 99th
// percentile.
func checkLate(r *run, p *phaseResult) float64 {
	lags := p.lags()
	late := quantile(lags, 0.5)
	r.check(late <= maxLateP50, "load generator lag p50 %.3fms exceeds %gms", late, maxLateP50)
	return quantile(lags, 0.99)
}

// setServerStages sets the server.* stage means over the traced daemon
// requests among spans, and the transport time: client latency minus
// daemon total.
func setServerStages(r *run, spans []span) {
	var n, client int64
	sums := map[string]int64{}
	for _, sp := range spans {
		if sp.Stages == nil {
			continue
		}
		n++
		client += sp.End - sp.Start
		for stage, ns := range sp.Stages {
			sums[stage] += ns
		}
	}
	if !r.check(n > 0, "no traced daemon requests") {
		return
	}
	meanUs := func(ns int64) float64 { return float64(ns) / float64(n) / 1e3 }
	for _, stage := range []string{"queue_wait", "decode", "coalesce", "encode", "other", "total"} {
		r.set("server."+stage+"_us", meanUs(sums[stage]))
	}
	r.set("server.transport_us", meanUs(client-sums["total"]))
}
