package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"
)

// sweepSigmas is the number of distinct σ TestAdversarialSigmaSweep
// sends: 10⁶, or 10⁵ under -short or the race detector.
func sweepSigmas() int {
	if testing.Short() || raceEnabled {
		return 100_000
	}
	return 1_000_000
}

// sweepPollEvery is how many sweep requests pass between the test's
// Poll calls, each of which rotates the rate window by one bucket.
const sweepPollEvery = 4096

// sweepTierConfig sets the promote threshold between the sweep's two
// steady keys.  Over the 1h window 0.25 samples/s is 900 samples (225 to
// demote).  Between polls the hot key gets 3 samples per 64 requests
// and the promoted key 8, so a full window holds about 768 hot and
// 2048 promoted samples.  Neither key moves, while each sweep key's
// single sample leaves its window after four polls.
func sweepTierConfig(c *Config) {
	tierTestConfig(c)
	c.TierPromoteRPS = 0.25
}

// TestAdversarialSigmaSweep pins the bound on per-σ state.  A client
// sweeps distinct σ through /v1/arbitrary, half at μ=0 and half off
// center, alongside a hot μ=0 key and a promoted key, while the rate
// window rotates.  The heap must stay bounded and the key table within
// its cap, and μ=0 sweep keys must be evicted once their window
// empties, while the hot key's ledger stays exact and the promoted key
// keeps serving from its compiled pool.
func TestAdversarialSigmaSweep(t *testing.T) {
	s, ts := newTestServer(t, sweepTierConfig)
	const hot, promoted, first = 3.3, 2.5, 5.0
	if err := s.Tier().ForcePromote(promoted); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	post := func(req arbitraryRequest) *httptest.ResponseRecorder {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/arbitrary", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("σ=%g μ=%g: status %d: %.120s", req.Sigma, req.Mu, rec.Code, rec.Body)
		}
		return rec
	}
	hotSent := 0
	sendHot := func() {
		post(arbitraryRequest{Count: 3, Sigma: hot})
		hotSent += 3
	}
	sendHot()
	post(arbitraryRequest{Count: 1, Sigma: promoted})

	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc
	n := sweepSigmas()
	start := time.Now()
	for i := 0; i < n; i++ {
		req := arbitraryRequest{Count: 1, Sigma: first + float64(i)*0.004}
		if i%2 == 1 {
			req.Mu = 0.25
		}
		post(req)
		if i%64 == 0 {
			sendHot()
			post(arbitraryRequest{Count: 8, Sigma: promoted})
		}
		if (i+1)%sweepPollEvery == 0 {
			s.Tier().Poll()
		}
	}
	elapsed := time.Since(start)
	runtime.GC()
	runtime.ReadMemStats(&ms)
	growth := int64(ms.HeapAlloc) - int64(before)
	t.Logf("%d distinct σ in %v (%v per request), heap growth %.1f MB",
		n, elapsed.Round(time.Millisecond), elapsed/time.Duration(n), float64(growth)/(1<<20))
	if growth > 8<<20 {
		t.Errorf("heap grew by %.1f MB over %d distinct σ, want < 8 MB", float64(growth)/(1<<20), n)
	}

	if got := scrapeMetric(t, ts.URL, `ctgaussd_arbitrary_sigma_samples_total{sigma="3.3"}`); got != float64(hotSent) {
		t.Errorf("hot key ledger = %v, want exactly the %d samples sent", got, hotSent)
	}
	if got := post(arbitraryRequest{Count: 1, Sigma: promoted}).Header().Get(tierHeader); got != "compiled" {
		t.Errorf("promoted key served by the %q tier after the sweep, want compiled", got)
	}
	for _, k := range s.Tier().Snapshot() {
		if k.Sigma == first {
			t.Errorf("first μ=0 sweep key σ=%g still tracked (%d samples); its window emptied long ago", first, k.Samples)
		}
	}
	tracked := scrapeMetric(t, ts.URL, "ctgaussd_arbitrary_sigmas")
	if tracked > 4096 || tracked < 2 {
		t.Errorf("ctgaussd_arbitrary_sigmas = %v, want the hot and promoted keys and at most 4096", tracked)
	}
	if got := scrapeMetric(t, ts.URL, "ctgaussd_arbitrary_sigmas_overflow"); got != 1 {
		t.Errorf("ctgaussd_arbitrary_sigmas_overflow = %v after %d distinct σ, want 1", got, n)
	}
	if got := scrapeMetric(t, ts.URL, "ctgaussd_arbitrary_plans"); got != tracked {
		t.Errorf("ctgaussd_arbitrary_plans = %v, want the tracked-key count %v", got, tracked)
	}
}
