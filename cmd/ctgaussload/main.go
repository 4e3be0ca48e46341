// Command ctgaussload drives a running ctgaussd and prints a JSON
// throughput report.  Its counters are designed to reconcile with the
// daemon's /metrics:
// requests against ctgaussd_requests_total, samples against
// ctgaussd_samples_served_total, signatures and verifications against
// their counters.  The report also carries the refill engine's prefetch
// ledger (prefetch_hits, prefetch_misses, prefetch_hit_ratio), scraped
// from ctgaussd_prefetch_{hits,misses}_total after the run — how often
// a served draw found its circuit evaluation already done.
//
// Usage:
//
//	ctgaussload                                      # 8 clients × 100 sample requests
//	ctgaussload -sigma 3.5                           # free-form σ through /v1/samples
//	ctgaussload -mode arbitrary -sigma 17.5 -mu 0.375
//	ctgaussload -mode sign -clients 4 -requests 50
//	ctgaussload -mode mix -count 256
//	ctgaussload -retries 5 -retry-backoff 50ms       # ride out 429/503 shedding
//	ctgaussload -stages                              # per-stage latency breakdown (daemon needs -trace)
//	ctgaussload -slowest 10                          # trace IDs of the 10 slowest requests
//	ctgaussload -addr http://gauss.internal:8754 -json report.json
//
// With -retries > 0, attempts the daemon sheds with 429 (queue full) or
// 503 (degraded/draining) are retried after a jittered exponential
// backoff, never sooner than the server's Retry-After header asks.  The
// report's "retries" field counts those extra attempts and
// "server_cancelled" carries the daemon's own
// ctgaussd_requests_cancelled_total tally after the run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"ctgauss/internal/server"
)

func main() {
	addr := flag.String("addr", "http://localhost:8754", "ctgaussd base URL")
	mode := flag.String("mode", "samples", "workload: samples, arbitrary, sign, verify, or mix")
	clients := flag.Int("clients", 8, "concurrent client loops")
	requests := flag.Int("requests", 100, "requests per client")
	count := flag.Int("count", 64, "samples per request (samples/arbitrary modes)")
	sigma := flag.String("sigma", "", "σ to request — any decimal the daemon's arbitrary layer admits, not just precompiled values (empty = server default; arbitrary mode default 3.3)")
	mu := flag.Float64("mu", 0, "center μ for arbitrary-mode requests")
	message := flag.String("message", "ctgaussload message", "payload for sign/verify requests")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request timeout")
	retries := flag.Int("retries", 0, "retries per request on 429/503 (jittered exponential backoff, floored by the server's Retry-After)")
	retryBackoff := flag.Duration("retry-backoff", 25*time.Millisecond, "base backoff before the first retry")
	stages := flag.Bool("stages", false, "report the per-stage latency breakdown from the daemon's stage trailers, reconciled against its ctgaussd_stage_seconds histograms (daemon needs -trace)")
	slowest := flag.Int("slowest", 0, "list the trace IDs of the K slowest requests (0 = off; -stages defaults it to 5)")
	jsonPath := flag.String("json", "-", "report destination (\"-\" = stdout)")
	flag.Parse()

	report, err := server.RunLoad(server.LoadConfig{
		BaseURL:      *addr,
		Mode:         *mode,
		Clients:      *clients,
		Requests:     *requests,
		Count:        *count,
		Sigma:        *sigma,
		Mu:           *mu,
		Message:      []byte(*message),
		Timeout:      *timeout,
		Retries:      *retries,
		RetryBackoff: *retryBackoff,
		Stages:       *stages,
		SlowestK:     *slowest,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ctgaussload:", err)
		os.Exit(1)
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "ctgaussload:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *jsonPath == "-" {
		_, err = os.Stdout.Write(data)
	} else {
		err = os.WriteFile(*jsonPath, data, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ctgaussload:", err)
		os.Exit(1)
	}
	if report.Errors > 0 {
		os.Exit(2)
	}
}
