package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzFreeformRequest sends arbitrary bodies to /v1/arbitrary and
// /v1/samples through the in-process handler.  Whatever the body, the
// server must not panic or answer 5xx, a 200 must carry exactly the
// samples it counts, and the key table must stay within its cap.
// Seeds, including NaN, ±Inf, subnormal and hexadecimal σ spellings,
// live in testdata/fuzz/FuzzFreeformRequest.
func FuzzFreeformRequest(f *testing.F) {
	s, err := New(Config{
		Sigmas:          []string{"2"},
		PoolShards:      1,
		ArbitraryShards: 1,
		MaxCount:        64,
		Seed:            []byte("fuzz-seed"),
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.Close)
	h := s.Handler()
	f.Fuzz(func(t *testing.T, arbitrary bool, body []byte) {
		path := "/v1/samples"
		if arbitrary {
			path = "/v1/arbitrary"
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code >= 500 {
			t.Fatalf("%s %q: status %d: %s", path, body, rec.Code, rec.Body)
		}
		if rec.Code == http.StatusOK {
			var resp struct {
				Count   int   `json:"count"`
				Samples []int `json:"samples"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("%s %q: undecodable 200: %v", path, body, err)
			}
			if resp.Count < 1 || resp.Count > 64 || len(resp.Samples) != resp.Count {
				t.Fatalf("%s %q: 200 with count %d and %d samples", path, body, resp.Count, len(resp.Samples))
			}
		}
		if n := s.tier.Stats().TrackedKeys; n > 4096 {
			t.Fatalf("key table holds %d keys, over its cap", n)
		}
	})
}
