package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ctgauss/internal/faultinject"
	"ctgauss/internal/tier"
)

// tierTestConfig enables the tier controller with an inert ticker: the
// promote threshold is unreachable and the window enormous, so only
// ForcePromote/ForceDemote move keys and the test owns every
// transition.
func tierTestConfig(c *Config) {
	c.FalconKey = nil
	c.FalconN = 0
	c.ArbitraryShards = 2
	c.TierPromoteRPS = 1e12
	c.TierWindow = time.Hour
}

// TestTierTransitionUnderLoad is the tier-transition suite's serving
// pin: concurrent /v1/arbitrary load across repeated forced promotion
// and demotion cycles must see zero failed requests, every response
// served wholly from one declared tier, and no goroutine leaked once
// the server closes.
func TestTierTransitionUnderLoad(t *testing.T) {
	before := runtime.NumGoroutine()
	s, ts := newTestServer(t, tierTestConfig)
	if s.Tier() == nil {
		t.Fatal("tier controller not constructed")
	}

	const sigma = 2.5
	const cycles = 5
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var compiledSeen, convolvedSeen atomic.Int64
	errc := make(chan error, 64)
	fail := func(format string, args ...any) {
		select {
		case errc <- fmt.Errorf(format, args...):
		default:
		}
	}

	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, body := postJSONT(t, ts.URL+"/v1/arbitrary", arbitraryRequest{Count: 64, Sigma: sigma})
				if resp.StatusCode != http.StatusOK {
					fail("status %d: %.120s", resp.StatusCode, body)
					continue
				}
				var ar arbitraryResponse
				if err := json.Unmarshal(body, &ar); err != nil {
					fail("unmarshal: %v", err)
					continue
				}
				if len(ar.Samples) != 64 {
					fail("got %d samples, want 64", len(ar.Samples))
				}
				switch resp.Header.Get("X-Ctgauss-Tier") {
				case "compiled":
					compiledSeen.Add(1)
				case "convolved":
					convolvedSeen.Add(1)
				default:
					fail("missing or unknown %s header %q", tierHeader, resp.Header.Get(tierHeader))
				}
			}
		}()
	}

	for cycle := 0; cycle < cycles; cycle++ {
		if err := s.Tier().ForcePromote(sigma); err != nil {
			t.Fatalf("cycle %d promote: %v", cycle, err)
		}
		time.Sleep(40 * time.Millisecond) // let load land on the compiled tier
		if err := s.Tier().ForceDemote(sigma); err != nil {
			t.Fatalf("cycle %d demote: %v", cycle, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if compiledSeen.Load() == 0 || convolvedSeen.Load() == 0 {
		t.Fatalf("load never straddled the transition: compiled=%d convolved=%d",
			compiledSeen.Load(), convolvedSeen.Load())
	}

	if v := scrapeMetric(t, ts.URL, "ctgaussd_tier_promotions_total"); v != cycles {
		t.Fatalf("promotions metric = %v, want %d", v, cycles)
	}
	if v := scrapeMetric(t, ts.URL, "ctgaussd_tier_demotions_total"); v != cycles {
		t.Fatalf("demotions metric = %v, want %d", v, cycles)
	}
	if v := scrapeMetric(t, ts.URL, `ctgaussd_tier_samples_total{tier="compiled"}`); v != float64(64*compiledSeen.Load()) {
		t.Fatalf("compiled tier ledger = %v, want %d", v, 64*compiledSeen.Load())
	}
	if v := scrapeMetric(t, ts.URL, `ctgaussd_tier_samples_total{tier="convolved"}`); v != float64(64*convolvedSeen.Load()) {
		t.Fatalf("convolved tier ledger = %v, want %d", v, 64*convolvedSeen.Load())
	}
	// The bounded per-σ ledger holds both tiers' traffic for the key.
	total := 64 * (compiledSeen.Load() + convolvedSeen.Load())
	if v := scrapeMetric(t, ts.URL, `ctgaussd_arbitrary_sigma_samples_total{sigma="2.5"}`); v != float64(total) {
		t.Fatalf("per-σ ledger = %v, want %d", v, total)
	}
	if v := scrapeMetric(t, ts.URL, `ctgaussd_tier_state{sigma="2.5"}`); v != 0 {
		t.Fatalf("tier state gauge = %v, want 0 (convolved) after the last demotion", v)
	}

	hr := getHealth(t, ts.URL)
	if hr.Tier == nil || hr.Tier.Promotions != cycles || hr.Tier.Pools != 0 {
		t.Fatalf("healthz tier block: %+v", hr.Tier)
	}

	s.Close()
	ts.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines alive after Close, started with %d", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPromotedPoolsNeverReplay pins promoted-pool seeding: a pool the
// tier builds must not serve a stream the process has already served.
// A promoted σ=2 key must not replay the -sigmas pool for σ="2", and a
// key promoted, demoted and promoted again must not replay its first
// pool.
func TestPromotedPoolsNeverReplay(t *testing.T) {
	s, ts := newTestServer(t, tierTestConfig)
	compiledDraw := func(sigma float64, n int) []int {
		t.Helper()
		resp, body := postJSONT(t, ts.URL+"/v1/arbitrary", arbitraryRequest{Count: n, Sigma: sigma})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("σ=%g: status %d: %.120s", sigma, resp.StatusCode, body)
		}
		if got := resp.Header.Get(tierHeader); got != "compiled" {
			t.Fatalf("σ=%g: tier header %q, want compiled", sigma, got)
		}
		var ar arbitraryResponse
		if err := json.Unmarshal(body, &ar); err != nil {
			t.Fatal(err)
		}
		return ar.Samples
	}

	resp, body := postJSONT(t, ts.URL+"/v1/samples", samplesRequest{Count: 64, Sigma: "2"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/samples: status %d: %.120s", resp.StatusCode, body)
	}
	var sr samplesResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if err := s.Tier().ForcePromote(2); err != nil {
		t.Fatal(err)
	}
	if promoted := compiledDraw(2, 64); slices.Equal(promoted, sr.Samples) {
		t.Fatal("promoted σ=2 pool replays the -sigmas pool's stream")
	}

	const sigma = 3.3
	var first []int
	for cycle := 0; cycle < 2; cycle++ {
		if err := s.Tier().ForcePromote(sigma); err != nil {
			t.Fatal(err)
		}
		got := compiledDraw(sigma, 256)
		if cycle == 0 {
			first = got
		} else if slices.Equal(got, first) {
			t.Fatal("re-promoted σ=3.3 replays its first pool's stream")
		}
		if err := s.Tier().ForceDemote(sigma); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTierAutomaticPromotion drives the controller through its own
// ticker over HTTP: sustained free-form σ traffic on /v1/samples
// promotes the key (responses switch to the compiled tier), and
// starving it demotes back.
func TestTierAutomaticPromotion(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) {
		c.FalconKey = nil
		c.FalconN = 0
		c.ArbitraryShards = 2
		c.TierPromoteRPS = 1
		c.TierWindow = 200 * time.Millisecond
	})

	// Hammer until a response arrives from the compiled tier.
	deadline := time.Now().Add(30 * time.Second)
	promoted := false
	for !promoted {
		if time.Now().After(deadline) {
			t.Fatalf("never promoted; tier state %v", s.Tier().State(2.5))
		}
		resp, body := postJSONT(t, ts.URL+"/v1/samples", samplesRequest{Count: 64, Sigma: "2.5"})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %.120s", resp.StatusCode, body)
		}
		var sr samplesResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatal(err)
		}
		if sr.Sigma != "2.5" || len(sr.Samples) != 64 {
			t.Fatalf("free-form response shape: sigma=%q len=%d", sr.Sigma, len(sr.Samples))
		}
		promoted = resp.Header.Get(tierHeader) == "compiled"
	}
	hr := getHealth(t, ts.URL)
	if hr.Tier == nil || hr.Tier.PromoteRPS != 1 || hr.Tier.DemoteRPS != 0.25 || hr.Tier.WindowSeconds != 0.2 {
		t.Fatalf("healthz tier config: %+v", hr.Tier)
	}

	// Starve the key: the window flushes and the ticker demotes.
	deadline = time.Now().Add(30 * time.Second)
	for s.Tier().State(2.5) != tier.Convolved {
		if time.Now().After(deadline) {
			t.Fatalf("never demoted; tier state %v", s.Tier().State(2.5))
		}
		time.Sleep(10 * time.Millisecond)
	}
	hr = getHealth(t, ts.URL)
	if hr.Tier.Demotions < 1 || hr.Tier.Pools != 0 {
		t.Fatalf("healthz after demotion: %+v", hr.Tier)
	}
	for _, k := range hr.Tier.Keys {
		if k.Sigma == 2.5 && k.State != "convolved" {
			t.Fatalf("healthz key state %q, want convolved", k.State)
		}
	}
}

// TestChaosTierBuildFailServing pins the degraded-promotion story at
// the HTTP surface: an injected build failure leaves the key on the
// convolved tier with zero client-visible errors, and the next
// promotion attempt succeeds.
func TestChaosTierBuildFailServing(t *testing.T) {
	s, ts := newTestServer(t, tierTestConfig)

	disarm := faultinject.Arm(faultinject.TierBuildFail, faultinject.Fault{
		Shard: faultinject.AnyShard,
		Count: 1,
	})
	defer disarm()

	const sigma = 2.5
	if err := s.Tier().ForcePromote(sigma); err == nil {
		t.Fatal("ForcePromote succeeded through an armed build failure")
	}
	// Clients keep drawing the key from the convolved tier, no error.
	resp, body := postJSONT(t, ts.URL+"/v1/arbitrary", arbitraryRequest{Count: 32, Sigma: sigma})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("draw after failed build: status %d: %.120s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(tierHeader); got != "convolved" {
		t.Fatalf("tier header %q after failed build, want convolved", got)
	}
	if v := scrapeMetric(t, ts.URL, "ctgaussd_tier_builds_failed_total"); v != 1 {
		t.Fatalf("builds failed metric = %v, want 1", v)
	}
	if v := scrapeMetric(t, ts.URL, "ctgaussd_tier_promotions_total"); v != 0 {
		t.Fatalf("promotions metric = %v, want 0", v)
	}

	// The fault auto-disarmed (Count=1): promotion is deferred, not
	// wedged — the retry installs the pool and the key serves compiled.
	if err := s.Tier().ForcePromote(sigma); err != nil {
		t.Fatalf("retry promote: %v", err)
	}
	resp, body = postJSONT(t, ts.URL+"/v1/arbitrary", arbitraryRequest{Count: 32, Sigma: sigma})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("draw after retry: status %d: %.120s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(tierHeader); got != "compiled" {
		t.Fatalf("tier header %q after successful retry, want compiled", got)
	}
}

// TestTierDisabledByDefault: without -tier-promote-rps the controller,
// its metrics and its healthz block are all absent, and free-form
// responses still declare their (only) tier.
func TestTierDisabledByDefault(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) {
		c.FalconKey = nil
		c.FalconN = 0
		c.ArbitraryShards = 2
	})
	if s.Tier() != nil {
		t.Fatal("tier controller constructed without TierPromoteRPS")
	}
	resp, _ := postJSONT(t, ts.URL+"/v1/arbitrary", arbitraryRequest{Count: 8, Sigma: 2.5})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(tierHeader); got != "convolved" {
		t.Fatalf("tier header %q, want convolved", got)
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	scrape, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(scrape), "ctgaussd_tier_") {
		t.Fatal("tier series present with tiering disabled")
	}
	if hr := getHealth(t, ts.URL); hr.Tier != nil {
		t.Fatalf("healthz tier block present with tiering disabled: %+v", hr.Tier)
	}
}
