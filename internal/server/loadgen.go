package server

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"ctgauss/internal/obs"
)

// LoadConfig drives RunLoad against a running ctgaussd.
type LoadConfig struct {
	// BaseURL is the daemon root, e.g. "http://localhost:8754".
	BaseURL string
	// Mode is "samples", "arbitrary", "sign", "verify", or "mix"
	// (round-robin over the enabled endpoints per request index; against
	// a daemon with Falcon or the arbitrary layer disabled, mix degrades
	// to the enabled set and the dedicated modes error out).
	Mode string
	// Clients is the number of concurrent request loops (default 8).
	Clients int
	// Requests is the request count per client (default 100).
	Requests int
	// Count is the per-request sample count for samples-mode requests
	// (default 64).
	Count int
	// Sigma optionally overrides the server's default σ.  In arbitrary
	// mode it is the free-form σ (decimal; default "3.3").
	Sigma string
	// Mu is the center for arbitrary-mode requests (default 0).
	Mu float64
	// Message is the payload for sign/verify requests (default fixed).
	Message []byte
	// Timeout bounds each HTTP request (default 30s).
	Timeout time.Duration
	// Retries is the number of times a request rejected with 429 or 503
	// is retried (0 = give up on the first rejection).  Each retry sleeps
	// a jittered exponential backoff from RetryBackoff, floored by the
	// server's Retry-After hint when one is sent.
	Retries int
	// RetryBackoff is the base backoff before the first retry (default
	// 25ms; doubles per attempt, capped at 2s before jitter).
	RetryBackoff time.Duration

	// Stages reports the client-observed per-stage latency breakdown from
	// the daemon's X-Ctgauss-Stages response trailers, reconciled against
	// the daemon's own ctgaussd_stage_seconds histograms scraped at the
	// run boundaries.  Requires a daemon running with -trace (or
	// -slow-request); RunLoad errors out otherwise.
	Stages bool
	// SlowestK lists the trace IDs of the K slowest requests in the
	// report (0 disables; Stages mode defaults it to 5).
	SlowestK int
}

// LatencySummary condenses observed per-request latencies.
type LatencySummary struct {
	P50Ms  float64 `json:"p50_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MeanMs float64 `json:"mean_ms"`
	MaxMs  float64 `json:"max_ms"`
}

// LoadReport is the throughput report RunLoad produces.  Counters are
// designed to reconcile with the daemon's /metrics:
// ctgaussd_requests_total counts queue-admitted requests, so its deltas
// over the exercised endpoints sum to (Requests + Retries) − Rejected —
// each retry is its own HTTP attempt, and each attempt the daemon sheds
// with 429 counts once in Rejected; Samples matches
// ctgaussd_samples_served_total, and so on.
// ServerCancelled is the daemon's own tally of requests whose context
// ended mid-flight (ctgaussd_requests_cancelled_total summed over
// endpoints) — under client timeouts it accounts for attempts that
// were admitted but produced no samples.
type LoadReport struct {
	Target            string         `json:"target"`
	Mode              string         `json:"mode"`
	Clients           int            `json:"clients"`
	Requests          int            `json:"requests"`
	Errors            int            `json:"errors"`
	Rejected          int            `json:"rejected_429"`
	Retries           int            `json:"retries"`
	Samples           int            `json:"samples"`
	ArbitrarySamples  int            `json:"arbitrary_samples"`
	Signatures        int            `json:"signatures"`
	Verifies          int            `json:"verifies"`
	DurationSeconds   float64        `json:"duration_seconds"`
	RequestsPerSecond float64        `json:"requests_per_second"`
	SamplesPerSecond  float64        `json:"samples_per_second"`
	Latency           LatencySummary `json:"latency"`

	// ServerCancelled reconciles against
	// ctgaussd_requests_cancelled_total (summed over endpoints) after
	// the run.
	ServerCancelled uint64 `json:"server_cancelled"`

	// Prefetch telemetry, reconciled against the daemon's /metrics after
	// the run: hits and misses are the sums of
	// ctgaussd_prefetch_{hits,misses}_total over every served σ, and the
	// ratio is hits/(hits+misses) — how often a draw found its refill
	// already evaluated by the engine's background producers.
	PrefetchHits     uint64  `json:"prefetch_hits"`
	PrefetchMisses   uint64  `json:"prefetch_misses"`
	PrefetchHitRatio float64 `json:"prefetch_hit_ratio"`

	// SlowestRequests identifies the run's K slowest successful requests
	// by daemon-issued trace ID — grep these against the daemon's
	// slow-request log to see where each one's time went server-side.
	SlowestRequests []SlowRequestInfo `json:"slowest_requests,omitempty"`

	// Stages is the per-stage latency breakdown (Stages mode only).
	Stages map[string]StageBreakdown `json:"stages,omitempty"`
}

// SlowRequestInfo identifies one of the run's slowest requests.
type SlowRequestInfo struct {
	TraceID   string  `json:"trace_id"`
	Endpoint  string  `json:"endpoint"`
	LatencyMs float64 `json:"latency_ms"`
}

// StageBreakdown is one stage's distribution over the run, from the
// daemon's per-request stage trailers (client-observed) reconciled with
// the daemon's own stage histograms (DaemonMeanUs, from the
// ctgaussd_stage_seconds _sum/_count deltas over the run).  Share is
// this stage's fraction of total request time; partition stages
// (queue_wait, decode, route, coalesce, encode, other) sum to ~1, while
// engine_wait/eval/combine nest inside coalesce and overlap it.
type StageBreakdown struct {
	Count        int     `json:"count"`
	P50Us        float64 `json:"p50_us"`
	P99Us        float64 `json:"p99_us"`
	MeanUs       float64 `json:"mean_us"`
	Share        float64 `json:"share"`
	DaemonMeanUs float64 `json:"daemon_mean_us,omitempty"`
}

// respMeta carries the observability envelope of one response: the
// daemon-issued trace ID (header) and the encoded stage breakdown
// (trailer; empty unless the daemon runs with -trace).
type respMeta struct {
	traceID string
	stages  string
}

// reqRecord is one successful request's observability record.
type reqRecord struct {
	endpoint string
	traceID  string
	latency  time.Duration
	stages   string // raw X-Ctgauss-Stages trailer
}

// loadWorker accumulates one client's counts (merged after the run).
type loadWorker struct {
	requests, errors, rejected    int
	retries                       int
	samples, signatures, verifies int
	arbitrary                     int
	latencies                     []time.Duration
	records                       []reqRecord
}

// RunLoad drives the daemon with Clients×Requests requests and returns
// the aggregate report.  Transport failures and non-2xx responses count
// as errors (429 separately as rejections); verify responses with
// valid=false count as errors too, since the load generator only submits
// genuine signatures.
func RunLoad(cfg LoadConfig) (*LoadReport, error) {
	if cfg.BaseURL == "" {
		return nil, fmt.Errorf("loadgen: BaseURL required")
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 8
	}
	if cfg.Requests <= 0 {
		cfg.Requests = 100
	}
	if cfg.Count <= 0 {
		cfg.Count = 64
	}
	if cfg.Mode == "" {
		cfg.Mode = "samples"
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	if cfg.Message == nil {
		cfg.Message = []byte("ctgaussload message")
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 25 * time.Millisecond
	}
	if cfg.Stages && cfg.SlowestK <= 0 {
		cfg.SlowestK = 5
	}
	client := &http.Client{Timeout: cfg.Timeout}

	falconOn, arbitraryOn, traceOn, err := probeFeatures(client, cfg.BaseURL)
	if err != nil {
		return nil, fmt.Errorf("loadgen: probing %s/healthz: %w", cfg.BaseURL, err)
	}
	if cfg.Stages && !traceOn {
		return nil, fmt.Errorf("loadgen: -stages needs a daemon running with -trace (or -slow-request); /healthz reports tracing off")
	}
	var endpoints []string
	switch cfg.Mode {
	case "samples":
		endpoints = []string{"samples"}
	case "arbitrary":
		if !arbitraryOn {
			return nil, fmt.Errorf("loadgen: mode %q needs /v1/arbitrary, but the daemon runs with the arbitrary layer disabled", cfg.Mode)
		}
		endpoints = []string{"arbitrary"}
	case "sign", "verify":
		if !falconOn {
			return nil, fmt.Errorf("loadgen: mode %q needs the Falcon endpoints, but the daemon runs sampling-only", cfg.Mode)
		}
		endpoints = []string{cfg.Mode}
	case "mix":
		endpoints = []string{"samples"}
		if arbitraryOn {
			endpoints = append(endpoints, "arbitrary")
		}
		if falconOn {
			endpoints = append(endpoints, "sign", "verify")
		}
	default:
		return nil, fmt.Errorf("loadgen: unknown mode %q (want samples, arbitrary, sign, verify or mix)", cfg.Mode)
	}

	// Arbitrary requests carry σ as a JSON number: parse it once, before
	// any load request, so a bad -sigma fails the run instead of every
	// request.
	arbSigma := 3.3
	if cfg.Sigma != "" && slices.Contains(endpoints, "arbitrary") {
		if arbSigma, err = strconv.ParseFloat(cfg.Sigma, 64); err != nil {
			return nil, fmt.Errorf("loadgen: arbitrary requests need a decimal σ: %w", err)
		}
	}

	// verify requests need a genuine signature: obtain one up front (not
	// counted in the report).
	var sigB64 string
	for _, ep := range endpoints {
		if ep != "verify" {
			continue
		}
		sigB64, err = signOnce(client, cfg)
		if err != nil {
			return nil, fmt.Errorf("loadgen: priming signature for verify mode: %w", err)
		}
	}

	collect := cfg.Stages || cfg.SlowestK > 0
	var sled0 stageLedger
	if cfg.Stages {
		var serr error
		if sled0, serr = scrapeStageLedger(client, cfg.BaseURL); serr != nil {
			return nil, fmt.Errorf("loadgen: stage ledger scrape: %w", serr)
		}
	}
	workers := make([]loadWorker, cfg.Clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(w *loadWorker) {
			defer wg.Done()
			for i := 0; i < cfg.Requests; i++ {
				ep := endpoints[i%len(endpoints)]
				t0 := time.Now()
				meta, err := doRequest(client, cfg, ep, arbSigma, sigB64, w)
				for attempt := 0; attempt < cfg.Retries && isRetryable(err); attempt++ {
					time.Sleep(retryDelay(cfg.RetryBackoff, attempt, err))
					w.retries++
					meta, err = doRequest(client, cfg, ep, arbSigma, sigB64, w)
				}
				lat := time.Since(t0)
				w.latencies = append(w.latencies, lat)
				w.requests++
				if err != nil && !isRejection(err) {
					// 429s count as Rejected only: backpressure working
					// as designed is not a failure of the run.
					w.errors++
				}
				if collect && err == nil && meta != nil {
					w.records = append(w.records, reqRecord{
						endpoint: ep, traceID: meta.traceID, latency: lat, stages: meta.stages,
					})
				}
			}
		}(&workers[c])
	}
	wg.Wait()
	elapsed := time.Since(start)

	report := &LoadReport{
		Target:          cfg.BaseURL,
		Mode:            cfg.Mode,
		Clients:         cfg.Clients,
		DurationSeconds: elapsed.Seconds(),
	}
	var lats []time.Duration
	for i := range workers {
		w := &workers[i]
		report.Requests += w.requests
		report.Errors += w.errors
		report.Rejected += w.rejected
		report.Retries += w.retries
		report.Samples += w.samples
		report.ArbitrarySamples += w.arbitrary
		report.Signatures += w.signatures
		report.Verifies += w.verifies
		lats = append(lats, w.latencies...)
	}
	if elapsed > 0 {
		report.RequestsPerSecond = float64(report.Requests) / elapsed.Seconds()
		report.SamplesPerSecond = float64(report.Samples) / elapsed.Seconds()
	}
	report.Latency = summarize(lats)
	// Reconcile the prefetch ledger against the daemon's own /metrics (a
	// daemon that doesn't expose the series — or is unreachable now —
	// just leaves the fields zero; the load counters above are already
	// complete).
	if hits, misses, cancelled, err := scrapeCounters(client, cfg.BaseURL); err == nil {
		report.PrefetchHits, report.PrefetchMisses = hits, misses
		if total := hits + misses; total > 0 {
			report.PrefetchHitRatio = float64(hits) / float64(total)
		}
		report.ServerCancelled = cancelled
	}

	var records []reqRecord
	for i := range workers {
		records = append(records, workers[i].records...)
	}
	if cfg.SlowestK > 0 {
		report.SlowestRequests = slowestRequests(records, cfg.SlowestK)
	}
	if cfg.Stages {
		sled1, serr := scrapeStageLedger(client, cfg.BaseURL)
		if serr != nil {
			return nil, fmt.Errorf("loadgen: stage ledger scrape: %w", serr)
		}
		report.Stages = stageBreakdowns(records, sled1.delta(sled0))
	}
	return report, nil
}

// slowestRequests picks the k slowest records, slowest first.
func slowestRequests(records []reqRecord, k int) []SlowRequestInfo {
	sorted := make([]reqRecord, len(records))
	copy(sorted, records)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].latency > sorted[j].latency })
	if k > len(sorted) {
		k = len(sorted)
	}
	out := make([]SlowRequestInfo, 0, k)
	for _, r := range sorted[:k] {
		out = append(out, SlowRequestInfo{
			TraceID:   r.traceID,
			Endpoint:  r.endpoint,
			LatencyMs: float64(r.latency.Nanoseconds()) / 1e6,
		})
	}
	return out
}

// stageBreakdowns aggregates the per-request stage trailers into
// per-stage distributions and reconciles each against the daemon's own
// histogram delta over the run.
func stageBreakdowns(records []reqRecord, daemon stageLedger) map[string]StageBreakdown {
	perStage := make(map[string][]int64)
	var totalNs int64
	for _, r := range records {
		for stage, ns := range obs.ParseStages(r.stages) {
			perStage[stage] = append(perStage[stage], ns)
			if stage == "total" {
				totalNs += ns
			}
		}
	}
	out := make(map[string]StageBreakdown, len(perStage))
	for stage, vals := range perStage {
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		var sum int64
		for _, v := range vals {
			sum += v
		}
		pick := func(q float64) float64 {
			return float64(vals[int(q*float64(len(vals)-1))]) / 1e3
		}
		b := StageBreakdown{
			Count:  len(vals),
			P50Us:  pick(0.5),
			P99Us:  pick(0.99),
			MeanUs: float64(sum) / float64(len(vals)) / 1e3,
		}
		if totalNs > 0 {
			b.Share = float64(sum) / float64(totalNs)
		}
		if d, ok := daemon[stage]; ok && d.count > 0 {
			b.DaemonMeanUs = d.seconds * 1e6 / float64(d.count)
		}
		out[stage] = b
	}
	return out
}

// scrapeMetrics fetches and parses the daemon's /metrics exposition.
func scrapeMetrics(client *http.Client, baseURL string) ([]obs.Sample, error) {
	resp, err := client.Get(baseURL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return obs.ParseMetrics(io.LimitReader(resp.Body, 16<<20))
}

// scrapeCounters sums the per-σ prefetch hit/miss counters and the
// per-endpoint cancellation counter from the daemon's /metrics.
func scrapeCounters(client *http.Client, baseURL string) (hits, misses, cancelled uint64, err error) {
	samples, err := scrapeMetrics(client, baseURL)
	if err != nil {
		return 0, 0, 0, err
	}
	for _, s := range samples {
		switch s.Name {
		case "ctgaussd_prefetch_hits_total":
			hits += uint64(s.Value)
		case "ctgaussd_prefetch_misses_total":
			misses += uint64(s.Value)
		case "ctgaussd_requests_cancelled_total":
			cancelled += uint64(s.Value)
		}
	}
	return hits, misses, cancelled, nil
}

// stageLedger is one scrape of the daemon's per-stage request-time
// histograms, summed across endpoints: cumulative seconds and
// observation counts per stage name.
type stageLedger map[string]stageLedgerEntry

type stageLedgerEntry struct {
	seconds float64
	count   uint64
}

// delta subtracts prev from l per stage (stages absent from prev count
// from zero).
func (l stageLedger) delta(prev stageLedger) stageLedger {
	out := make(stageLedger, len(l))
	for stage, e := range l {
		p := prev[stage]
		out[stage] = stageLedgerEntry{seconds: e.seconds - p.seconds, count: e.count - p.count}
	}
	return out
}

// scrapeStageLedger reads the ctgaussd_stage_seconds _sum and _count
// series from /metrics, summed across endpoints.  An empty ledger is
// not an error: a freshly started traced daemon has no observations
// yet (the caller gates on /healthz's trace flag instead), and the
// exposition skips empty histograms.
func scrapeStageLedger(client *http.Client, baseURL string) (stageLedger, error) {
	samples, err := scrapeMetrics(client, baseURL)
	if err != nil {
		return nil, err
	}
	led := make(stageLedger)
	for _, s := range samples {
		stage := s.Labels["stage"]
		e := led[stage]
		switch s.Name {
		case "ctgaussd_stage_seconds_sum":
			e.seconds += s.Value
		case "ctgaussd_stage_seconds_count":
			e.count += uint64(s.Value)
		default:
			continue
		}
		led[stage] = e
	}
	return led, nil
}

// errHTTP marks a non-2xx response (the body's error message, if any,
// and the server's Retry-After hint when it sent one).
type errHTTP struct {
	status     int
	msg        string
	retryAfter time.Duration
}

func (e *errHTTP) Error() string { return fmt.Sprintf("http %d: %s", e.status, e.msg) }

// isRejection reports whether err is a 429 backpressure response.
func isRejection(err error) bool {
	he, ok := err.(*errHTTP)
	return ok && he.status == http.StatusTooManyRequests
}

// isRetryable reports whether err is a response the daemon explicitly
// asks clients to retry: 429 backpressure or 503 degraded/draining.
func isRetryable(err error) bool {
	he, ok := err.(*errHTTP)
	return ok && (he.status == http.StatusTooManyRequests || he.status == http.StatusServiceUnavailable)
}

// retryDelay computes the sleep before retry number attempt (0-based):
// full-jitter exponential backoff from base, doubled per attempt and
// capped at 2s, floored by the server's Retry-After hint so a client
// never comes back earlier than the daemon asked.
func retryDelay(base time.Duration, attempt int, err error) time.Duration {
	d := base << uint(attempt)
	if max := 2 * time.Second; d > max || d <= 0 {
		d = max
	}
	d = d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
	if he, ok := err.(*errHTTP); ok && he.retryAfter > d {
		d = he.retryAfter
	}
	return d
}

// probeFeatures asks /healthz which optional endpoint groups the daemon
// mounts and whether stage tracing is on.
func probeFeatures(client *http.Client, baseURL string) (falconOn, arbitraryOn, traceOn bool, err error) {
	resp, err := client.Get(baseURL + "/healthz")
	if err != nil {
		return false, false, false, err
	}
	defer resp.Body.Close()
	var hr struct {
		Falcon    string `json:"falcon"`
		Arbitrary bool   `json:"arbitrary"`
		Trace     bool   `json:"trace"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		return false, false, false, err
	}
	return hr.Falcon != "", hr.Arbitrary, hr.Trace, nil
}

// postJSON posts req and decodes the 200 response into resp, returning
// the response's observability envelope.  Reading the body to EOF first
// is what makes the trailer visible: net/http exposes trailers only
// after the last body byte.
func postJSON(client *http.Client, url string, req, resp any) (*respMeta, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	r, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer r.Body.Close()
	data, err := io.ReadAll(io.LimitReader(r.Body, 64<<20))
	if err != nil {
		return nil, err
	}
	meta := &respMeta{
		traceID: r.Header.Get(obs.TraceHeader),
		stages:  r.Trailer.Get(obs.StagesHeader),
	}
	if r.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		_ = json.Unmarshal(data, &e)
		he := &errHTTP{status: r.StatusCode, msg: e.Error}
		if secs, perr := strconv.Atoi(r.Header.Get("Retry-After")); perr == nil && secs > 0 {
			he.retryAfter = time.Duration(secs) * time.Second
		}
		return meta, he
	}
	return meta, json.Unmarshal(data, resp)
}

func signOnce(client *http.Client, cfg LoadConfig) (string, error) {
	var resp signResponse
	_, err := postJSON(client, cfg.BaseURL+"/v1/falcon/sign",
		signRequest{Message: base64.StdEncoding.EncodeToString(cfg.Message)}, &resp)
	if err != nil {
		return "", err
	}
	return resp.Signature, nil
}

func doRequest(client *http.Client, cfg LoadConfig, endpoint string, arbSigma float64, sigB64 string, w *loadWorker) (*respMeta, error) {
	switch endpoint {
	case "samples":
		var resp samplesResponse
		meta, err := postJSON(client, cfg.BaseURL+"/v1/samples",
			samplesRequest{Count: cfg.Count, Sigma: cfg.Sigma}, &resp)
		if err != nil {
			if he, ok := err.(*errHTTP); ok && he.status == http.StatusTooManyRequests {
				w.rejected++
			}
			return meta, err
		}
		if len(resp.Samples) != cfg.Count {
			return meta, fmt.Errorf("got %d samples, want %d", len(resp.Samples), cfg.Count)
		}
		w.samples += len(resp.Samples)
		return meta, nil
	case "arbitrary":
		var resp arbitraryResponse
		meta, err := postJSON(client, cfg.BaseURL+"/v1/arbitrary",
			arbitraryRequest{Count: cfg.Count, Sigma: arbSigma, Mu: cfg.Mu}, &resp)
		if err != nil {
			if he, ok := err.(*errHTTP); ok && he.status == http.StatusTooManyRequests {
				w.rejected++
			}
			return meta, err
		}
		if len(resp.Samples) != cfg.Count {
			return meta, fmt.Errorf("got %d arbitrary samples, want %d", len(resp.Samples), cfg.Count)
		}
		w.arbitrary += len(resp.Samples)
		return meta, nil
	case "sign":
		var resp signResponse
		meta, err := postJSON(client, cfg.BaseURL+"/v1/falcon/sign",
			signRequest{Message: base64.StdEncoding.EncodeToString(cfg.Message)}, &resp)
		if err != nil {
			if he, ok := err.(*errHTTP); ok && he.status == http.StatusTooManyRequests {
				w.rejected++
			}
			return meta, err
		}
		if resp.Signature == "" {
			return meta, fmt.Errorf("empty signature")
		}
		w.signatures++
		return meta, nil
	case "verify":
		var resp verifyResponse
		meta, err := postJSON(client, cfg.BaseURL+"/v1/falcon/verify",
			verifyRequest{
				Message:   base64.StdEncoding.EncodeToString(cfg.Message),
				Signature: sigB64,
			}, &resp)
		if err != nil {
			if he, ok := err.(*errHTTP); ok && he.status == http.StatusTooManyRequests {
				w.rejected++
			}
			return meta, err
		}
		if !resp.Valid {
			return meta, fmt.Errorf("genuine signature reported invalid: %s", resp.Reason)
		}
		w.verifies++
		return meta, nil
	}
	return nil, fmt.Errorf("unknown endpoint %q", endpoint)
}

func summarize(lats []time.Duration) LatencySummary {
	if len(lats) == 0 {
		return LatencySummary{}
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	var sum time.Duration
	for _, d := range lats {
		sum += d
	}
	pick := func(q float64) float64 {
		idx := int(q * float64(len(lats)-1))
		return float64(lats[idx].Nanoseconds()) / 1e6
	}
	return LatencySummary{
		P50Ms:  pick(0.5),
		P99Ms:  pick(0.99),
		MeanMs: float64(sum.Nanoseconds()) / float64(len(lats)) / 1e6,
		MaxMs:  float64(lats[len(lats)-1].Nanoseconds()) / 1e6,
	}
}
