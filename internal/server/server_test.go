package server

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ctgauss"
	"ctgauss/falcon"
	"ctgauss/internal/ctcheck"
)

// testFalconKey generates the shared falcon-256 test key once per
// process (keygen costs ~100ms; every server under test reuses it).
var (
	falconKeyOnce sync.Once
	falconKey     *falcon.PrivateKey
	falconKeyErr  error
)

func testFalconKey(t *testing.T) *falcon.PrivateKey {
	t.Helper()
	falconKeyOnce.Do(func() {
		falconKey, falconKeyErr = falcon.Keygen(256, []byte("server-test-keygen-seed"))
	})
	if falconKeyErr != nil {
		t.Fatal(falconKeyErr)
	}
	return falconKey
}

// newTestServer builds a server plus an httptest front end.  mutate
// adjusts the default config before construction.
func newTestServer(t *testing.T, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{
		Sigmas:       []string{"2"},
		PoolShards:   1,
		Seed:         []byte("server-test-seed"),
		FalconKey:    testFalconKey(t),
		FalconSeed:   []byte("server-test-sign-seed"),
		FalconShards: 2,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close) // runs after ts.Close (LIFO): drain, then stop the engines
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSONT(t *testing.T, url string, req any) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

func drawSamples(t *testing.T, baseURL string, count int) []int {
	t.Helper()
	resp, body := postJSONT(t, baseURL+"/v1/samples", samplesRequest{Count: count})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("samples request: status %d: %s", resp.StatusCode, body)
	}
	var sr samplesResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Count != count || len(sr.Samples) != count {
		t.Fatalf("asked for %d samples, got count=%d len=%d", count, sr.Count, len(sr.Samples))
	}
	return sr.Samples
}

// scrapeMetric fetches /metrics and returns the value of the series
// exactly as exposed, e.g. `ctgaussd_requests_total{endpoint="samples"}`.
func scrapeMetric(t *testing.T, baseURL, series string) float64 {
	t.Helper()
	samples, err := scrapeMetrics(http.DefaultClient, baseURL)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		if s.Series == series {
			return s.Value
		}
	}
	t.Fatalf("series %s not found in /metrics", series)
	return 0
}

// TestSamplesBitIdenticalToDirectPool pins the acceptance criterion that
// serving adds no transformation: the concatenated responses of
// sequential /v1/samples requests equal a direct ctgauss.Pool draw with
// the same derived seed and shard count.
func TestSamplesBitIdenticalToDirectPool(t *testing.T) {
	seed := []byte("determinism-seed")
	_, ts := newTestServer(t, func(c *Config) {
		c.Seed = seed
		c.FalconKey = nil // sampling only; keygen not needed here
		c.FalconN = 0
	})

	counts := []int{5, 64, 100, 3, 128}
	var served []int
	for _, n := range counts {
		served = append(served, drawSamples(t, ts.URL, n)...)
	}

	direct, err := ctgauss.NewPoolWithConfig(ctgauss.Config{
		Sigma: "2",
		Seed:  PoolSeed(seed, "2"),
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]int, 0, len(served)+64)
	batch := make([]int, 64)
	for len(want) < len(served) {
		direct.NextBatch(batch)
		want = append(want, batch...)
	}
	for i, v := range served {
		if v != want[i] {
			t.Fatalf("sample %d: served %d, direct pool %d", i, v, want[i])
		}
	}
}

// TestSamplesCoalescing checks that N concurrent small requests share
// batches: 32 clients × 16 samples = 512 samples must cost exactly 8
// 64-sample batches (vs ≥ 32 if every request drew its own batch).
func TestSamplesCoalescing(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) {
		c.FalconKey = nil
		c.FalconN = 0
	})

	const clients, perClient = 32, 16
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, _ := json.Marshal(samplesRequest{Count: perClient})
			resp, err := http.Post(ts.URL+"/v1/samples", "application/json", bytes.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	batches := scrapeMetric(t, ts.URL, `ctgaussd_batches_total{sigma="2"}`)
	if want := float64(clients * perClient / 64); batches != want {
		t.Fatalf("coalescing: %v batches drawn for %d samples, want %v", batches, clients*perClient, want)
	}
	// The refill ledger must agree with the engine width: refills =
	// batches / batches-per-refill.
	width := s.pools["2"].Stats().BatchesPerRefill
	refills := scrapeMetric(t, ts.URL, `ctgaussd_refills_total{sigma="2"}`)
	if want := float64(clients*perClient/64) / float64(width); refills != want {
		t.Fatalf("refills = %v, want %v (width %d)", refills, want, width)
	}
}

func TestFalconEndpoints(t *testing.T) {
	_, ts := newTestServer(t, nil)
	msg := base64.StdEncoding.EncodeToString([]byte("serving test message"))

	// Sign.
	resp, body := postJSONT(t, ts.URL+"/v1/falcon/sign", signRequest{Message: msg})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sign: status %d: %s", resp.StatusCode, body)
	}
	var sr signResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}

	// Verify against the server's key.
	resp, body = postJSONT(t, ts.URL+"/v1/falcon/verify",
		verifyRequest{Message: msg, Signature: sr.Signature})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("verify: status %d: %s", resp.StatusCode, body)
	}
	var vr verifyResponse
	if err := json.Unmarshal(body, &vr); err != nil {
		t.Fatal(err)
	}
	if !vr.Valid {
		t.Fatalf("genuine signature rejected: %s", vr.Reason)
	}

	// Tampered message must fail verification (still HTTP 200).
	tampered := base64.StdEncoding.EncodeToString([]byte("tampered message!!!!"))
	resp, body = postJSONT(t, ts.URL+"/v1/falcon/verify",
		verifyRequest{Message: tampered, Signature: sr.Signature})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("verify(tampered): status %d", resp.StatusCode)
	}
	if err := json.Unmarshal(body, &vr); err != nil {
		t.Fatal(err)
	}
	if vr.Valid {
		t.Fatal("tampered message verified")
	}

	// Fetch the public key and verify against it explicitly, end to end
	// through the codec: the signature must also check out locally.
	kresp, err := http.Get(ts.URL + "/v1/falcon/key")
	if err != nil {
		t.Fatal(err)
	}
	var kr keyResponse
	if err := json.NewDecoder(kresp.Body).Decode(&kr); err != nil {
		t.Fatal(err)
	}
	kresp.Body.Close()
	if kr.N != 256 || kr.Params != "falcon-256" {
		t.Fatalf("key endpoint: %+v", kr)
	}
	resp, body = postJSONT(t, ts.URL+"/v1/falcon/verify",
		verifyRequest{Message: msg, Signature: sr.Signature, PublicKey: kr.PublicKey})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("verify(explicit key): status %d", resp.StatusCode)
	}
	if err := json.Unmarshal(body, &vr); err != nil {
		t.Fatal(err)
	}
	if !vr.Valid {
		t.Fatalf("verification against served public key failed: %s", vr.Reason)
	}
	rawPk, err := base64.StdEncoding.DecodeString(kr.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	pk, err := falcon.DecodePublic(rawPk)
	if err != nil {
		t.Fatal(err)
	}
	rawSig, err := base64.StdEncoding.DecodeString(sr.Signature)
	if err != nil {
		t.Fatal(err)
	}
	sig, err := falcon.DecodeSignature(rawSig)
	if err != nil {
		t.Fatal(err)
	}
	if err := pk.Verify([]byte("serving test message"), sig); err != nil {
		t.Fatalf("offline verification of served signature: %v", err)
	}
}

// TestFalconVerifyRejectsMalleable: a served signature re-encoded with a
// byte appended (length field bumped to match), or with an unused
// padding bit of its last byte set, is a different byte string and
// /v1/falcon/verify must answer valid: false for it.
func TestFalconVerifyRejectsMalleable(t *testing.T) {
	_, ts := newTestServer(t, nil)
	var msg string
	var raw []byte
	saltLen := 0
	for i := 0; raw == nil; i++ {
		msg = base64.StdEncoding.EncodeToString([]byte(fmt.Sprintf("malleable %d", i)))
		resp, body := postJSONT(t, ts.URL+"/v1/falcon/sign", signRequest{Message: msg})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("sign: status %d: %s", resp.StatusCode, body)
		}
		var sr signResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatal(err)
		}
		enc, err := base64.StdEncoding.DecodeString(sr.Signature)
		if err != nil {
			t.Fatal(err)
		}
		sig, err := falcon.DecodeSignature(enc)
		if err != nil {
			t.Fatal(err)
		}
		// Payload bits: sign, 7 low bits, unary high part, terminator.
		bits := 0
		for _, c := range sig.S1 {
			bits += 9 + int(max(c, -c))>>7
		}
		if bits%8 != 0 { // the last byte has padding bits
			raw, saltLen = enc, len(sig.Salt)
		}
	}
	// Salt, then a big-endian uint16 degree and uint16 payload length.
	appended := append(append([]byte(nil), raw...), 0)
	plen := appended[saltLen+2:]
	binary.BigEndian.PutUint16(plen, binary.BigEndian.Uint16(plen)+1)
	padded := append([]byte(nil), raw...)
	padded[len(padded)-1] |= 1
	for name, m := range map[string][]byte{"genuine": raw, "trailing byte": appended, "padding bit": padded} {
		resp, body := postJSONT(t, ts.URL+"/v1/falcon/verify",
			verifyRequest{Message: msg, Signature: base64.StdEncoding.EncodeToString(m)})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", name, resp.StatusCode, body)
		}
		var vr verifyResponse
		if err := json.Unmarshal(body, &vr); err != nil {
			t.Fatal(err)
		}
		if want := name == "genuine"; vr.Valid != want {
			t.Errorf("%s: valid = %v, want %v (%s)", name, vr.Valid, want, vr.Reason)
		}
	}
}

// TestConcurrentMixedTraffic is the zero-errors end-to-end acceptance
// run: concurrent /v1/samples and /v1/falcon/sign+verify clients against
// one server (run under -race in CI).
func TestConcurrentMixedTraffic(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) { c.PoolShards = 2 })
	const clients, perClient = 12, 6
	var wg sync.WaitGroup
	errs := make(chan error, clients*perClient)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			msg := base64.StdEncoding.EncodeToString([]byte{byte(c), 'm'})
			for i := 0; i < perClient; i++ {
				if c%2 == 0 {
					body, _ := json.Marshal(samplesRequest{Count: 100})
					resp, err := http.Post(ts.URL+"/v1/samples", "application/json", bytes.NewReader(body))
					if err != nil {
						errs <- err
						return
					}
					var sr samplesResponse
					err = json.NewDecoder(resp.Body).Decode(&sr)
					resp.Body.Close()
					if err != nil {
						errs <- err
						return
					}
					if resp.StatusCode != http.StatusOK || len(sr.Samples) != 100 {
						errs <- fmt.Errorf("samples: status %d, %d samples", resp.StatusCode, len(sr.Samples))
						return
					}
				} else {
					body, _ := json.Marshal(signRequest{Message: msg})
					resp, err := http.Post(ts.URL+"/v1/falcon/sign", "application/json", bytes.NewReader(body))
					if err != nil {
						errs <- err
						return
					}
					var sr signResponse
					err = json.NewDecoder(resp.Body).Decode(&sr)
					resp.Body.Close()
					if err != nil {
						errs <- err
						return
					}
					if resp.StatusCode != http.StatusOK {
						errs <- fmt.Errorf("sign: status %d", resp.StatusCode)
						return
					}
					vbody, _ := json.Marshal(verifyRequest{Message: msg, Signature: sr.Signature})
					vresp, err := http.Post(ts.URL+"/v1/falcon/verify", "application/json", bytes.NewReader(vbody))
					if err != nil {
						errs <- err
						return
					}
					var vr verifyResponse
					err = json.NewDecoder(vresp.Body).Decode(&vr)
					vresp.Body.Close()
					if err != nil {
						errs <- err
						return
					}
					if !vr.Valid {
						errs <- fmt.Errorf("verify: %s", vr.Reason)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestMetricsReconcileWithLoadReport runs the load generator against a
// fresh server and checks its report against the daemon's /metrics —
// the reconciliation the acceptance criteria require.
func TestMetricsReconcileWithLoadReport(t *testing.T) {
	_, ts := newTestServer(t, nil)
	report, err := RunLoad(LoadConfig{
		BaseURL:  ts.URL,
		Mode:     "mix",
		Clients:  4,
		Requests: 9, // 3 samples + 3 sign + 3 verify per client
		Count:    33,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Errors != 0 {
		t.Fatalf("load run saw %d errors", report.Errors)
	}
	if report.Requests != 4*9 {
		t.Fatalf("report.Requests = %d, want %d", report.Requests, 4*9)
	}

	// The served-samples counter covers both the per-σ pools and the
	// free-form convolution layer (mix mode exercises both).
	samples := scrapeMetric(t, ts.URL, "ctgaussd_samples_served_total")
	if samples != float64(report.Samples+report.ArbitrarySamples) {
		t.Fatalf("metrics samples %v != report samples %d + arbitrary %d",
			samples, report.Samples, report.ArbitrarySamples)
	}
	arbSamples := scrapeMetric(t, ts.URL, "ctgaussd_arbitrary_samples_total")
	if arbSamples != float64(report.ArbitrarySamples) {
		t.Fatalf("metrics arbitrary samples %v != report %d", arbSamples, report.ArbitrarySamples)
	}
	signs := scrapeMetric(t, ts.URL, "ctgaussd_signatures_total")
	// The verify arm of mix mode signs once up front to get a genuine
	// signature; that priming request is not in the report.
	if signs != float64(report.Signatures+1) {
		t.Fatalf("metrics signatures %v != report signatures %d + 1 priming", signs, report.Signatures)
	}
	verifies := scrapeMetric(t, ts.URL, "ctgaussd_verifies_total")
	if verifies != float64(report.Verifies) {
		t.Fatalf("metrics verifies %v != report verifies %d", verifies, report.Verifies)
	}
	reqTotal := scrapeMetric(t, ts.URL, `ctgaussd_requests_total{endpoint="samples"}`) +
		scrapeMetric(t, ts.URL, `ctgaussd_requests_total{endpoint="arbitrary"}`) +
		scrapeMetric(t, ts.URL, `ctgaussd_requests_total{endpoint="falcon_sign"}`) +
		scrapeMetric(t, ts.URL, `ctgaussd_requests_total{endpoint="falcon_verify"}`)
	if reqTotal != float64(report.Requests+1) {
		t.Fatalf("metrics requests %v != report requests %d + 1 priming", reqTotal, report.Requests)
	}
	if report.Latency.P50Ms <= 0 || report.Latency.P99Ms < report.Latency.P50Ms {
		t.Fatalf("implausible latency summary: %+v", report.Latency)
	}
}

// TestBackpressure returns 429 once the admission queue is full, and
// recovers afterwards.
func TestBackpressure(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) {
		c.FalconKey = nil
		c.FalconN = 0
		c.QueueDepth = 1
	})
	entered := make(chan struct{})
	release := make(chan struct{})
	var hookOnce sync.Once
	s.testHook = func(string) {
		hookOnce.Do(func() {
			close(entered)
			<-release
		})
	}

	// First request takes the single queue slot and parks in the hook.
	firstDone := make(chan int, 1)
	go func() {
		body, _ := json.Marshal(samplesRequest{Count: 1})
		resp, err := http.Post(ts.URL+"/v1/samples", "application/json", bytes.NewReader(body))
		if err != nil {
			firstDone <- -1
			return
		}
		resp.Body.Close()
		firstDone <- resp.StatusCode
	}()
	<-entered

	// While it holds the slot, further requests must be rejected.
	body, _ := json.Marshal(samplesRequest{Count: 1})
	resp, err := http.Post(ts.URL+"/v1/samples", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("expected 429 with full queue, got %d", resp.StatusCode)
	}

	close(release)
	if code := <-firstDone; code != http.StatusOK {
		t.Fatalf("parked request finished with %d", code)
	}
	if rej := scrapeMetric(t, ts.URL, `ctgaussd_rejected_total{endpoint="samples"}`); rej != 1 {
		t.Fatalf("rejected counter = %v, want 1", rej)
	}
	// Queue slot released: traffic flows again.
	drawSamples(t, ts.URL, 4)
}

// TestDrainCompletesInflight pins graceful shutdown: Drain refuses new
// requests immediately but waits for admitted ones to finish.
func TestDrainCompletesInflight(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) {
		c.FalconKey = nil
		c.FalconN = 0
	})
	entered := make(chan struct{})
	release := make(chan struct{})
	var hookOnce sync.Once
	s.testHook = func(string) {
		hookOnce.Do(func() {
			close(entered)
			<-release
		})
	}

	inflightDone := make(chan int, 1)
	go func() {
		body, _ := json.Marshal(samplesRequest{Count: 8})
		resp, err := http.Post(ts.URL+"/v1/samples", "application/json", bytes.NewReader(body))
		if err != nil {
			inflightDone <- -1
			return
		}
		resp.Body.Close()
		inflightDone <- resp.StatusCode
	}()
	<-entered

	s.stopAccepting()
	// New requests are refused while the old one is still parked.
	body, _ := json.Marshal(samplesRequest{Count: 1})
	resp, err := http.Post(ts.URL+"/v1/samples", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("expected 503 while draining, got %d", resp.StatusCode)
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hr healthResponse
	if err := json.NewDecoder(hresp.Body).Decode(&hr); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hr.Status != "draining" || hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain: status %q, code %d", hr.Status, hresp.StatusCode)
	}

	waitDone := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(waitDone)
	}()
	select {
	case <-waitDone:
		t.Fatal("drain completed with a request still in flight")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	select {
	case <-waitDone:
	case <-time.After(5 * time.Second):
		t.Fatal("drain did not complete after the in-flight request finished")
	}
	if code := <-inflightDone; code != http.StatusOK {
		t.Fatalf("in-flight request finished with %d during drain", code)
	}
	if v := scrapeMetric(t, ts.URL, `ctgaussd_drain_refused_total{endpoint="samples"}`); v != 1 {
		t.Fatalf("drain refusal not counted: %v", v)
	}
}

// TestLoadGenFalconDisabled pins mix-mode degradation and sign-mode
// refusal against a sampling-only daemon.
func TestLoadGenFalconDisabled(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) {
		c.FalconKey = nil
		c.FalconN = 0
	})
	report, err := RunLoad(LoadConfig{BaseURL: ts.URL, Mode: "mix", Clients: 2, Requests: 3, Count: 8})
	if err != nil {
		t.Fatal(err)
	}
	if report.Errors != 0 || report.Samples+report.ArbitrarySamples != 2*3*8 || report.Signatures != 0 {
		t.Fatalf("mix against sampling-only daemon: %+v", report)
	}
	if _, err := RunLoad(LoadConfig{BaseURL: ts.URL, Mode: "sign", Clients: 1, Requests: 1}); err == nil {
		t.Fatal("sign mode against sampling-only daemon should refuse to start")
	}
}

// TestLoadGenRejectsNonDecimalSigma pins that arbitrary-mode σ is parsed
// once up front: a non-decimal -sigma fails the run before any load
// request, rather than turning every request into an error.
func TestLoadGenRejectsNonDecimalSigma(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) {
		c.FalconKey = nil
		c.FalconN = 0
	})
	report, err := RunLoad(LoadConfig{BaseURL: ts.URL, Mode: "arbitrary", Clients: 2, Requests: 5, Sigma: "abc"})
	if err == nil {
		t.Fatalf("non-decimal σ accepted: %+v", report)
	}
	if v := scrapeMetric(t, ts.URL, `ctgaussd_requests_total{endpoint="arbitrary"}`); v != 0 {
		t.Fatalf("%g arbitrary requests sent before σ was rejected", v)
	}
}

// TestLoadGenCountsRejectionsNotErrors pins that 429s land in Rejected
// only.
func TestLoadGenCountsRejectionsNotErrors(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) {
		c.FalconKey = nil
		c.FalconN = 0
		c.QueueDepth = 1
	})
	// Park every admitted request briefly so concurrent clients overflow
	// the depth-1 queue.
	s.testHook = func(string) { time.Sleep(5 * time.Millisecond) }
	report, err := RunLoad(LoadConfig{BaseURL: ts.URL, Mode: "samples", Clients: 8, Requests: 4, Count: 8})
	if err != nil {
		t.Fatal(err)
	}
	if report.Rejected == 0 {
		t.Skip("no contention on this run; nothing to assert")
	}
	if report.Errors != 0 {
		t.Fatalf("429s were counted as errors: %+v", report)
	}
	rej := scrapeMetric(t, ts.URL, `ctgaussd_rejected_total{endpoint="samples"}`)
	adm := scrapeMetric(t, ts.URL, `ctgaussd_requests_total{endpoint="samples"}`)
	if rej != float64(report.Rejected) || adm != float64(report.Requests-report.Rejected) {
		t.Fatalf("reconciliation: metrics admitted=%v rejected=%v, report requests=%d rejected=%d",
			adm, rej, report.Requests, report.Rejected)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}
	var hr healthResponse
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		t.Fatal(err)
	}
	if hr.Status != "ok" || hr.DefaultSigma != "2" || hr.Falcon != "falcon-256" {
		t.Fatalf("healthz: %+v", hr)
	}
	if hr.PoolShards != 1 || hr.FalconShards != 2 {
		t.Fatalf("healthz shard counts: %+v", hr)
	}
}

func TestRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) { c.MaxCount = 256 })

	// Wrong method.
	resp, err := http.Get(ts.URL + "/v1/samples")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/samples: %d, want 405", resp.StatusCode)
	}

	// Malformed JSON.
	resp, err = http.Post(ts.URL+"/v1/samples", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON: %d, want 400", resp.StatusCode)
	}

	// Unknown field.
	resp, _ = postJSONT(t, ts.URL+"/v1/samples", map[string]any{"count": 4, "bogus": true})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: %d, want 400", resp.StatusCode)
	}

	// count out of range.
	resp, _ = postJSONT(t, ts.URL+"/v1/samples", samplesRequest{Count: 0})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("count 0: %d, want 400", resp.StatusCode)
	}
	resp, _ = postJSONT(t, ts.URL+"/v1/samples", samplesRequest{Count: 257})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("count > max: %d, want 413", resp.StatusCode)
	}

	// A σ without a precompiled pool is served free-form by the
	// convolution layer; only unparseable or out-of-bounds σ are 400s.
	resp, _ = postJSONT(t, ts.URL+"/v1/samples", samplesRequest{Count: 4, Sigma: "99"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("free-form sigma: %d, want 200", resp.StatusCode)
	}
	resp, _ = postJSONT(t, ts.URL+"/v1/samples", samplesRequest{Count: 4, Sigma: "not-a-number"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unparseable sigma: %d, want 400", resp.StatusCode)
	}
	resp, _ = postJSONT(t, ts.URL+"/v1/samples", samplesRequest{Count: 4, Sigma: "99999"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-bounds sigma: %d, want 400", resp.StatusCode)
	}
	// With the layer disabled, unknown σ is a 400 naming the menu.
	_, tsNoArb := newTestServer(t, func(c *Config) { c.DisableArbitrary = true })
	resp, noArbBody := postJSONT(t, tsNoArb.URL+"/v1/samples", samplesRequest{Count: 4, Sigma: "99"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown sigma with arbitrary disabled: %d, want 400 (%s)", resp.StatusCode, noArbBody)
	}

	// Invalid base64 on the falcon endpoints.
	resp, _ = postJSONT(t, ts.URL+"/v1/falcon/sign", signRequest{Message: "!!not-base64!!"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad base64 sign: %d, want 400", resp.StatusCode)
	}
	resp, _ = postJSONT(t, ts.URL+"/v1/falcon/verify", verifyRequest{Message: "AA==", Signature: "!!"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad base64 verify: %d, want 400", resp.StatusCode)
	}

	// A garbage (but well-formed base64) signature is a verification
	// outcome, not a transport error.
	resp, body := postJSONT(t, ts.URL+"/v1/falcon/verify", verifyRequest{Message: "AA==", Signature: "AAAA"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("garbage signature: %d, want 200", resp.StatusCode)
	}
	var vr verifyResponse
	if err := json.Unmarshal(body, &vr); err != nil {
		t.Fatal(err)
	}
	if vr.Valid || vr.Reason == "" {
		t.Fatalf("garbage signature: %+v", vr)
	}

	// Errors are counted (the validation requests above all hit samples
	// or falcon endpoints).
	if v := scrapeMetric(t, ts.URL, `ctgaussd_errors_total{endpoint="samples"}`); v == 0 {
		t.Fatal("validation failures not counted in ctgaussd_errors_total")
	}
}

// TestMultiSigma serves two σ pools side by side.
func TestMultiSigma(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) {
		c.Sigmas = []string{"2", "1.5"}
		c.FalconKey = nil
		c.FalconN = 0
	})
	resp, body := postJSONT(t, ts.URL+"/v1/samples", samplesRequest{Count: 8, Sigma: "1.5"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sigma 1.5: status %d: %s", resp.StatusCode, body)
	}
	var sr samplesResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Sigma != "1.5" || len(sr.Samples) != 8 {
		t.Fatalf("sigma 1.5 response: %+v", sr)
	}
	// Default σ is the first listed.
	resp, body = postJSONT(t, ts.URL+"/v1/samples", samplesRequest{Count: 4})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("default sigma: status %d", resp.StatusCode)
	}
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Sigma != "2" {
		t.Fatalf("default sigma = %q, want 2", sr.Sigma)
	}
}

// TestArbitraryEndpoint pins the /v1/arbitrary round trip and its
// validation errors.
func TestArbitraryEndpoint(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) {
		c.FalconKey = nil
		c.FalconN = 0
		c.MaxCount = 4096
	})
	resp, body := postJSONT(t, ts.URL+"/v1/arbitrary", arbitraryRequest{Count: 100, Sigma: 3.7, Mu: 0.25})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("arbitrary request: status %d: %s", resp.StatusCode, body)
	}
	var ar arbitraryResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	if ar.Sigma != 3.7 || ar.Mu != 0.25 || len(ar.Samples) != 100 {
		t.Fatalf("arbitrary response: sigma=%v mu=%v len=%d", ar.Sigma, ar.Mu, len(ar.Samples))
	}

	for name, req := range map[string]arbitraryRequest{
		"zero count":    {Count: 0, Sigma: 3},
		"missing sigma": {Count: 4},
		"tiny sigma":    {Count: 4, Sigma: 0.01},
		"huge sigma":    {Count: 4, Sigma: 1e9},
	} {
		resp, _ := postJSONT(t, ts.URL+"/v1/arbitrary", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	resp, _ = postJSONT(t, ts.URL+"/v1/arbitrary", arbitraryRequest{Count: 5000, Sigma: 3})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("count > max: status %d, want 413", resp.StatusCode)
	}

	// Metrics expose the layer's ledger.
	if v := scrapeMetric(t, ts.URL, "ctgaussd_arbitrary_samples_total"); v != 100 {
		t.Fatalf("arbitrary samples metric = %v, want 100", v)
	}
	if v := scrapeMetric(t, ts.URL, "ctgaussd_arbitrary_sigmas"); v != 1 {
		t.Fatalf("distinct sigmas metric = %v, want 1", v)
	}
	if v := scrapeMetric(t, ts.URL, "ctgaussd_arbitrary_trials_total"); v <= 0 {
		t.Fatalf("trials metric = %v, want > 0", v)
	}
}

// TestArbitraryDisabled: with the layer off, the endpoint is absent and
// /healthz says so.
func TestArbitraryDisabled(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) {
		c.FalconKey = nil
		c.FalconN = 0
		c.DisableArbitrary = true
	})
	resp, _ := postJSONT(t, ts.URL+"/v1/arbitrary", arbitraryRequest{Count: 4, Sigma: 3})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("disabled /v1/arbitrary: status %d, want 404", resp.StatusCode)
	}
	hr := getHealth(t, ts.URL)
	if hr.Arbitrary {
		t.Fatal("healthz reports arbitrary enabled on a disabled daemon")
	}
}

func getHealth(t *testing.T, baseURL string) healthResponse {
	t.Helper()
	resp, err := http.Get(baseURL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hr healthResponse
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		t.Fatal(err)
	}
	return hr
}

// TestArbitraryServesManySigmas is the PR's acceptance-criteria test: a
// single compiled base set serves five distinct σ values — including
// non-precompiled σ and a non-zero center — through both the Go API and
// /v1/arbitrary.  The served samples must (a) be bit-identical to a
// locally reconstructed sampler with the same derived seed (the serving
// layer adds no draws of its own), and (b) pass the ctcheck statistical
// harness against the ideal D_{ℤ,σ,μ}.
func TestArbitraryServesManySigmas(t *testing.T) {
	master := []byte("arbitrary-acceptance-seed")
	_, ts := newTestServer(t, func(c *Config) {
		c.Seed = master
		c.FalconKey = nil
		c.FalconN = 0
		c.ArbitraryShards = 2
	})
	local, err := ctgauss.NewArbitrary(ctgauss.ArbitraryConfig{
		Seed:   ArbitrarySeed(master),
		Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}

	pairs := []struct {
		sigma, mu float64
	}{
		{2, 0},        // precompiled base member
		{2.5, 0},      // non-precompiled σ
		{3.75, 0.375}, // non-precompiled σ, non-zero μ
		{6.15543, 0},  // the other base member
		{23.4, -1.5},  // far outside the base set, negative center
	}
	const n = 30000
	for _, pc := range pairs {
		resp, body := postJSONT(t, ts.URL+"/v1/arbitrary",
			arbitraryRequest{Count: n, Sigma: pc.sigma, Mu: pc.mu})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("σ=%g: status %d: %.200s", pc.sigma, resp.StatusCode, body)
		}
		var ar arbitraryResponse
		if err := json.Unmarshal(body, &ar); err != nil {
			t.Fatal(err)
		}
		want := make([]int, n)
		if err := local.NextBatch(pc.sigma, pc.mu, want); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if ar.Samples[i] != want[i] {
				t.Fatalf("σ=%g μ=%g: served sample %d = %d, local reconstruction %d",
					pc.sigma, pc.mu, i, ar.Samples[i], want[i])
			}
		}
		g := ctcheck.ChiSquareGaussian(ar.Samples, pc.sigma, pc.mu)
		t.Logf("σ=%g μ=%g: %s", pc.sigma, pc.mu, g)
		if !g.Pass(0.001, 1.05) {
			t.Fatalf("σ=%g μ=%g: served samples fail the acceptance harness: %s", pc.sigma, pc.mu, g)
		}
	}
	if v := scrapeMetric(t, ts.URL, "ctgaussd_arbitrary_sigmas"); v != float64(len(pairs)) {
		t.Fatalf("distinct sigmas metric = %v, want %d", v, len(pairs))
	}
	hr := getHealth(t, ts.URL)
	if !hr.Arbitrary || len(hr.ArbitraryBases) != 2 || hr.ArbitrarySigmaMin <= 0 || hr.ArbitrarySigmaMax < 4096 {
		t.Fatalf("healthz arbitrary block: %+v", hr)
	}
}

// TestFreeformSigmaOnSamples: /v1/samples serves any in-bounds decimal σ
// through the convolution layer, keeping the request's spelling.
func TestFreeformSigmaOnSamples(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) {
		c.FalconKey = nil
		c.FalconN = 0
	})
	resp, body := postJSONT(t, ts.URL+"/v1/samples", samplesRequest{Count: 200, Sigma: "3.5"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("free-form σ: status %d: %s", resp.StatusCode, body)
	}
	var sr samplesResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Sigma != "3.5" || len(sr.Samples) != 200 {
		t.Fatalf("free-form response: %+v", sr)
	}
	// Plausibility: folded mean of |z| for σ=3.5 is ≈ 2.8; a gross
	// mis-scale (e.g. serving the default σ=2 pool) would miss this band.
	var absSum float64
	for _, v := range sr.Samples {
		if v < 0 {
			v = -v
		}
		absSum += float64(v)
	}
	if mean := absSum / float64(len(sr.Samples)); mean < 2.2 || mean > 3.4 {
		t.Fatalf("free-form σ=3.5 mean |z| = %.2f, implausible", mean)
	}
	// The arbitrary endpoint and the free-form path share one ledger.
	if v := scrapeMetric(t, ts.URL, "ctgaussd_arbitrary_samples_total"); v != 200 {
		t.Fatalf("free-form draws not in the arbitrary ledger: %v", v)
	}
	// mix-load against this daemon exercises the arbitrary endpoint too.
	report, err := RunLoad(LoadConfig{BaseURL: ts.URL, Mode: "arbitrary", Clients: 2, Requests: 3, Count: 16, Sigma: "4.2", Mu: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if report.Errors != 0 || report.ArbitrarySamples != 2*3*16 {
		t.Fatalf("arbitrary load report: %+v", report)
	}
}

// TestServerCloseReleasesEngines pins the SIGTERM path end to end:
// Close drains, stops every background refill producer the pools and
// the arbitrary layer own, and gates the signer pool — while /metrics
// and /healthz stay readable for a final scrape.
func TestServerCloseReleasesEngines(t *testing.T) {
	before := runtime.NumGoroutine()
	s, ts := newTestServer(t, func(c *Config) { c.PoolShards = 2 })
	drawSamples(t, ts.URL, 100)

	s.Close()
	s.Close() // idempotent
	// New requests bounce off the drain gate with 503 — they never reach
	// the closed engines.
	resp, _ := postJSONT(t, ts.URL+"/v1/samples", samplesRequest{Count: 4})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-Close request: status %d, want 503", resp.StatusCode)
	}
	if v := scrapeMetric(t, ts.URL, `ctgaussd_pool_samples_total{sigma="2"}`); v != 100 {
		t.Fatalf("ledger unreadable after Close: %v", v)
	}
	ts.Close()
	// The producers (pool shards + arbitrary base streams) must all be
	// gone; give httptest's own connection goroutines a moment too.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines alive after Close, started with %d", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPrefetchMetricsAndLoadReconcile pins the prefetch telemetry: the
// per-σ hit/miss counters appear in /metrics, reconcile into the load
// generator's report, and the synchronous configuration reports a zero
// hit ratio ceiling on cold draws while the async default warms up.
func TestPrefetchMetricsAndLoadReconcile(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) {
		c.FalconKey = nil
		c.FalconN = 0
	})
	report, err := RunLoad(LoadConfig{BaseURL: ts.URL, Mode: "samples", Clients: 4, Requests: 25, Count: 96})
	if err != nil {
		t.Fatal(err)
	}
	if report.Errors != 0 {
		t.Fatalf("load errors: %+v", report)
	}
	hits := scrapeMetric(t, ts.URL, `ctgaussd_prefetch_hits_total{sigma="2"}`)
	misses := scrapeMetric(t, ts.URL, `ctgaussd_prefetch_misses_total{sigma="2"}`)
	if hits+misses == 0 {
		t.Fatal("no prefetch ledger activity recorded")
	}
	if float64(report.PrefetchHits) != hits || float64(report.PrefetchMisses) != misses {
		t.Fatalf("report hits/misses %d/%d do not reconcile with metrics %v/%v",
			report.PrefetchHits, report.PrefetchMisses, hits, misses)
	}
	if want := hits / (hits + misses); report.PrefetchHitRatio != want {
		t.Fatalf("report hit ratio %v, metrics-derived %v", report.PrefetchHitRatio, want)
	}
	if scrapeMetric(t, ts.URL, `ctgaussd_prefetch_depth{sigma="2"}`) != float64(ctgauss.DefaultPrefetch) {
		t.Fatal("default prefetch depth not exposed")
	}
	produced := scrapeMetric(t, ts.URL, `ctgaussd_refills_produced_total{sigma="2"}`)
	started := scrapeMetric(t, ts.URL, `ctgaussd_refills_total{sigma="2"}`)
	if produced < started {
		t.Fatalf("produced %v < started %v", produced, started)
	}

	// Synchronous config: depth 0 exposed, every cold draw is a miss.
	_, tsSync := newTestServer(t, func(c *Config) {
		c.FalconKey = nil
		c.FalconN = 0
		c.Prefetch = -1
		c.PrefetchBySigma = map[string]int{"2": -1}
	})
	drawSamples(t, tsSync.URL, 64)
	if v := scrapeMetric(t, tsSync.URL, `ctgaussd_prefetch_depth{sigma="2"}`); v != 0 {
		t.Fatalf("sync prefetch depth = %v, want 0", v)
	}
	if v := scrapeMetric(t, tsSync.URL, `ctgaussd_prefetch_misses_total{sigma="2"}`); v == 0 {
		t.Fatal("sync pool recorded no inline-fill misses")
	}
	hr := getHealth(t, tsSync.URL)
	if hr.Prefetch != 0 {
		t.Fatalf("healthz prefetch = %d, want 0 for sync", hr.Prefetch)
	}

	// A per-σ override naming an unserved σ (a typo, or a different
	// decimal spelling) is a construction error, not a silent no-op.
	_, err = New(Config{
		Sigmas:           []string{"2"},
		PoolShards:       1,
		DisableArbitrary: true,
		PrefetchBySigma:  map[string]int{"2.0": -1},
	})
	if err == nil {
		t.Fatal("PrefetchBySigma naming an unserved σ was accepted")
	}
}
