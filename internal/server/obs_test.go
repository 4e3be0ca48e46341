package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"ctgauss"
	"ctgauss/internal/bitslice/dispatch"
	"ctgauss/internal/obs"
	"ctgauss/internal/prng"
)

// tracedPost posts req and returns the response trace ID, the decoded
// stage trailer, and the parsed body.  The body must be drained before
// the trailer is visible — that ordering is exactly what the production
// client (loadgen) relies on too.
func tracedPost(t *testing.T, url string, req any) (traceID string, stages map[string]int64, body []byte) {
	t.Helper()
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	traceID = resp.Header.Get(obs.TraceHeader)
	stages = obs.ParseStages(resp.Trailer.Get(obs.StagesHeader))
	return traceID, stages, body
}

func TestTraceHeaderUniqueAndStageTrailer(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) { c.Trace = true })

	seen := make(map[string]bool)
	for i := 0; i < 20; i++ {
		traceID, stages, _ := tracedPost(t, ts.URL+"/v1/samples", samplesRequest{Count: 64})
		if traceID == "" {
			t.Fatalf("request %d: no %s header", i, obs.TraceHeader)
		}
		if seen[traceID] {
			t.Fatalf("trace ID %q repeated", traceID)
		}
		seen[traceID] = true

		total := stages["total"]
		if total <= 0 {
			t.Fatalf("request %d: stage trailer has no positive total: %v", i, stages)
		}
		if stages["coalesce"] <= 0 {
			t.Fatalf("request %d: samples draw recorded no coalesce time: %v", i, stages)
		}
		// The partition stages must account for the request exactly:
		// Finish derives "other" as the unattributed remainder.
		var part int64
		for name, ns := range stages {
			for i := 0; i < obs.NumStages; i++ {
				if s := obs.Stage(i); s.String() == name && s.Partition() {
					part += ns
				}
			}
		}
		if part != total {
			t.Fatalf("request %d: partition stages sum to %d, total is %d", i, part, total)
		}
	}
}

func TestTraceDisabledNoHeaderNoSeries(t *testing.T) {
	_, ts := newTestServer(t, nil)

	resp, body := postJSONT(t, ts.URL+"/v1/samples", samplesRequest{Count: 64})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(obs.TraceHeader); got != "" {
		t.Fatalf("tracing off, but response carries %s=%q", obs.TraceHeader, got)
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	data, _ := io.ReadAll(mresp.Body)
	if strings.Contains(string(data), "ctgaussd_stage_seconds") {
		t.Fatal("tracing off, but /metrics exposes ctgaussd_stage_seconds")
	}
}

// TestStageHistogramsReconcile drives concurrent load and checks the
// daemon's own stage accounting: summed over an endpoint, the partition
// stages' histogram _sum values must land within 5% of the total
// stage's (they are exactly equal by construction — the tolerance only
// absorbs float rendering).
func TestStageHistogramsReconcile(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) { c.Trace = true })

	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				resp, err := http.Post(ts.URL+"/v1/samples", "application/json",
					strings.NewReader(`{"count":64}`))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()

	// A stage nothing exercised (e.g. route on the precompiled path) has
	// no observations, and empty histograms are skipped in the scrape —
	// read it as zero rather than requiring the series.
	samples, err := scrapeMetrics(http.DefaultClient, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	sum := func(stage string) float64 {
		series := fmt.Sprintf("ctgaussd_stage_seconds_sum{stage=%q,endpoint=\"samples\"}", stage)
		for _, s := range samples {
			if s.Series == series {
				return s.Value
			}
		}
		return 0
	}
	total := sum("total")
	if total <= 0 {
		t.Fatalf("total stage sum = %g, want > 0", total)
	}
	var part float64
	for i := 0; i < obs.NumStages; i++ {
		if s := obs.Stage(i); s.Partition() {
			part += sum(s.String())
		}
	}
	if math.Abs(part-total)/total > 0.05 {
		t.Fatalf("partition stage sums (%g s) diverge from total (%g s) by more than 5%%", part, total)
	}
	count := scrapeMetric(t, ts.URL, `ctgaussd_stage_seconds_count{stage="total",endpoint="samples"}`)
	if count != 100 {
		t.Fatalf("total stage count = %g, want 100", count)
	}
}

// lockedSink is a goroutine-safe log destination.
type lockedSink struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *lockedSink) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

func (l *lockedSink) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

func TestSlowRequestLogCarriesTraceID(t *testing.T) {
	sink := &lockedSink{}
	_, ts := newTestServer(t, func(c *Config) {
		c.SlowRequest = time.Nanosecond // every request is "slow"; the first always logs
		c.Logger = slog.New(slog.NewJSONHandler(sink, nil))
	})

	traceID, _, _ := tracedPost(t, ts.URL+"/v1/samples", samplesRequest{Count: 64})
	if traceID == "" {
		t.Fatalf("-slow-request implies tracing, but no %s header came back", obs.TraceHeader)
	}

	var found bool
	for _, line := range strings.Split(strings.TrimSpace(sink.String()), "\n") {
		if line == "" {
			continue
		}
		var rec struct {
			Msg      string `json:"msg"`
			Trace    string `json:"trace"`
			Endpoint string `json:"endpoint"`
			StagesMs map[string]float64
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("non-JSON log line %q: %v", line, err)
		}
		if rec.Msg == "slow request" && rec.Trace == traceID {
			if rec.Endpoint != "samples" {
				t.Fatalf("slow-request record has endpoint %q, want samples", rec.Endpoint)
			}
			found = true
		}
	}
	if !found {
		t.Fatalf("no slow-request record for trace %s in log:\n%s", traceID, sink.String())
	}
}

// TestMetricsLintClean pins the exposition format: a traced, tiered,
// loaded server's /metrics must pass every rule the CI metrics-lint
// step enforces (sorted families, no duplicates, counters end _total,
// buckets carry le, ...).
func TestMetricsLintClean(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) {
		c.Trace = true
		c.TierPromoteRPS = 1e9 // tier controller on (no promotion expected)
	})
	drawSamples(t, ts.URL, 64)
	resp, body := postJSONT(t, ts.URL+"/v1/arbitrary", arbitraryRequest{Count: 16, Sigma: 3.3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("arbitrary: status %d: %s", resp.StatusCode, body)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if errs := obs.LintMetrics(mresp.Body); len(errs) > 0 {
		t.Fatalf("metrics lint found %d violations: %v", len(errs), errs)
	}
}

func TestBuildInfoExposed(t *testing.T) {
	_, ts := newTestServer(t, nil)

	b := obs.Build()
	series := fmt.Sprintf("ctgaussd_build_info{version=%q,go_version=%q,simd=%q,prng=%q}",
		b.Version, b.GoVersion, dispatch.Active().String(), prng.Serving())
	if v := scrapeMetric(t, ts.URL, series); v != 1 {
		t.Fatalf("%s = %g, want 1", series, v)
	}
	if v := scrapeMetric(t, ts.URL, "ctgaussd_go_goroutines"); v <= 0 {
		t.Fatalf("ctgaussd_go_goroutines = %g, want > 0", v)
	}
	if v := scrapeMetric(t, ts.URL, "ctgaussd_uptime_seconds"); v < 0 {
		t.Fatalf("ctgaussd_uptime_seconds = %g, want >= 0", v)
	}

	h := getHealth(t, ts.URL)
	if h.Build.Version != b.Version || h.Build.GoVersion != b.GoVersion {
		t.Fatalf("healthz build block %+v does not match obs.Build() %+v", h.Build, b)
	}
	if want := dispatch.Snapshot(); h.Simd.Backend != want.Backend {
		t.Fatalf("healthz simd block %+v does not match dispatch.Snapshot() %+v", h.Simd, want)
	}
	if len(h.Simd.Available) == 0 || h.Simd.Available[0] != "portable" {
		t.Fatalf("healthz simd available must lead with portable: %v", h.Simd.Available)
	}
	if h.Trace {
		t.Fatal("healthz reports tracing on for an untraced server")
	}
	if h.PRNG != prng.Serving() {
		t.Fatalf("healthz prng = %q, want the serving default %q", h.PRNG, prng.Serving())
	}
}

// TestExplicitPRNGReachesEverySurface pins Config.PRNG's plumbing: a
// named generator is what /healthz and ctgaussd_build_info report, and
// what the served stream is drawn from.
func TestExplicitPRNGReachesEverySurface(t *testing.T) {
	seed := []byte("explicit-prng-seed")
	_, ts := newTestServer(t, func(c *Config) {
		c.Seed = seed
		c.PRNG = "shake256"
		c.FalconKey = nil
		c.FalconN = 0
	})
	if h := getHealth(t, ts.URL); h.PRNG != "shake256" {
		t.Fatalf("healthz prng = %q, want shake256", h.PRNG)
	}
	b := obs.Build()
	series := fmt.Sprintf("ctgaussd_build_info{version=%q,go_version=%q,simd=%q,prng=\"shake256\"}",
		b.Version, b.GoVersion, dispatch.Active().String())
	if v := scrapeMetric(t, ts.URL, series); v != 1 {
		t.Fatalf("%s = %g, want 1", series, v)
	}
	served := drawSamples(t, ts.URL, 64)
	direct, err := ctgauss.NewPoolWithConfig(ctgauss.Config{Sigma: "2", Seed: PoolSeed(seed, "2"), PRNG: "shake256"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	want := make([]int, 64)
	if err := direct.NextBatch(want); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(served, want) {
		t.Fatalf("served %v, want the shake256 pool's %v", served[:8], want[:8])
	}
}

func TestRingOccupancyGauges(t *testing.T) {
	_, ts := newTestServer(t, nil)
	drawSamples(t, ts.URL, 64)

	// Left idle, a pool shard's producer refills to the configured
	// lookahead and parks there.
	depth := scrapeMetric(t, ts.URL, `ctgaussd_prefetch_depth{sigma="2"}`)
	const series = `ctgaussd_engine_ring_buffered{sigma="2",shard="0"}`
	deadline := time.Now().Add(5 * time.Second)
	for v := scrapeMetric(t, ts.URL, series); v != depth; v = scrapeMetric(t, ts.URL, series) {
		if v > depth || time.Now().After(deadline) {
			t.Fatalf("%s = %g, want the prefetch depth %g", series, v, depth)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The arbitrary layer's occupancy is load-dependent; just require the
	// series to exist.
	_ = scrapeMetric(t, ts.URL, `ctgaussd_engine_ring_buffered{sigma="arbitrary",shard="0"}`)
}

// TestPprofOnlyOnDebugListener pins the security boundary: the serving
// mux must not expose pprof; the dedicated debug handler must.
func TestPprofOnlyOnDebugListener(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) { c.Trace = true })

	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("serving listener answers /debug/pprof/ with %d, want 404", resp.StatusCode)
	}

	dbg := httptest.NewServer(obs.DebugHandler())
	defer dbg.Close()
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/heap"} {
		resp, err := http.Get(dbg.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("debug listener answers %s with %d, want 200", path, resp.StatusCode)
		}
	}
}

// TestLoadgenStagesMode runs the full client-side pipeline: loadgen
// collects stage trailers, reconciles them against the daemon's
// histograms, and names its slowest requests by trace ID.
func TestLoadgenStagesMode(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) { c.Trace = true })

	report, err := RunLoad(LoadConfig{
		BaseURL:  ts.URL,
		Mode:     "samples",
		Clients:  4,
		Requests: 25,
		Count:    64,
		Stages:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Errors != 0 {
		t.Fatalf("load run had %d errors", report.Errors)
	}
	total, ok := report.Stages["total"]
	if !ok || total.Count != 100 {
		t.Fatalf("stages[total] = %+v, want count 100", total)
	}
	if total.MeanUs <= 0 || total.DaemonMeanUs <= 0 {
		t.Fatalf("stages[total] means not populated: %+v", total)
	}
	// Client-observed partition shares must attribute ≥95% of request
	// time (the trailer is exact; "other" absorbs the remainder).
	var share float64
	for i := 0; i < obs.NumStages; i++ {
		s := obs.Stage(i)
		if !s.Partition() {
			continue
		}
		share += report.Stages[s.String()].Share
	}
	if share < 0.95 || share > 1.05 {
		t.Fatalf("partition stages attribute %.0f%% of request time, want ~100%%", share*100)
	}
	if len(report.SlowestRequests) != 5 {
		t.Fatalf("got %d slowest requests, want 5", len(report.SlowestRequests))
	}
	for i, sr := range report.SlowestRequests {
		if sr.TraceID == "" || sr.Endpoint != "samples" || sr.LatencyMs <= 0 {
			t.Fatalf("slowest[%d] incomplete: %+v", i, sr)
		}
		if i > 0 && sr.LatencyMs > report.SlowestRequests[i-1].LatencyMs {
			t.Fatalf("slowest requests not sorted: %v", report.SlowestRequests)
		}
	}
}

// TestLoadgenStagesNeedsTracing pins the error path: -stages against an
// untraced daemon must fail loudly, not report zeros.
func TestLoadgenStagesNeedsTracing(t *testing.T) {
	_, ts := newTestServer(t, nil)

	_, err := RunLoad(LoadConfig{BaseURL: ts.URL, Mode: "samples", Clients: 1, Requests: 1, Stages: true})
	if err == nil || !strings.Contains(err.Error(), "-trace") {
		t.Fatalf("RunLoad with Stages against untraced daemon: err = %v, want a -trace hint", err)
	}
}
