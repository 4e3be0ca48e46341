package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"ctgauss/internal/obs"
)

// tierHeader names the response header carrying the tier that served a
// free-form request.  The routing decision is taken once per request
// and the compiled pool is refcounted across the whole draw, so the
// header is a guarantee, not a hint: every sample in the response came
// from the named tier.
const tierHeader = "X-Ctgauss-Tier"

// serveFreeform fills out for one free-form (σ, μ) request: the flow
// behind /v1/arbitrary and the free-form σ fallback of /v1/samples.
// In order: the compiled tier for μ=0, the degraded shed, the
// convolved draw, the per-tier counters, one Observe on the key table
// and the tier header.  On failure it writes the error response and
// returns false; on success the caller writes the body.
//
// All free-form requests, whatever their (σ, μ), share the one
// compiled base set, whose sharded wide samplers batch refills across
// concurrent requests, and the convolution layer compacts accepted
// candidates, so every request is served exactly with no leftover.
func (s *Server) serveFreeform(w http.ResponseWriter, r *http.Request, ep string, sigma, mu float64, out []int) bool {
	ctx, tr := r.Context(), traceOf(w)
	compiled := false
	var took time.Duration
	// A compiled circuit serves one centered σ, so only μ=0 can use a
	// promoted pool.  Such a key skips the convolution machinery, its
	// degraded shed included, since its pool draws no base stream.
	if mu == 0 {
		t0 := tr.Now()
		pool, release, ok := s.tier.Acquire(sigma)
		tr.End(obs.StageRoute, t0)
		if ok {
			start := time.Now()
			err := pool.Take(ctx, out)
			release()
			took = time.Since(start)
			tr.End(obs.StageCoalesce, start)
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				s.writeDrawError(w, ep, err)
				return false
			}
			// A degraded or closing promoted pool falls back to the
			// convolved tier silently, the way a failed build does.
			compiled = err == nil
		}
	}
	if !compiled {
		// A poisoned shard anywhere in the base engines sheds the
		// free-form path first, so the precompiled pools keep their
		// capacity while the producer restarts.
		if s.arb.Degraded() {
			writeUnavailable(w, "arbitrary layer degraded: a base shard is restarting")
			return false
		}
		start := time.Now()
		err := s.arb.NextBatchContext(ctx, sigma, mu, out)
		took = time.Since(start)
		tr.End(obs.StageCoalesce, start)
		if err != nil {
			s.writeDrawError(w, ep, err)
			return false
		}
	}
	n := uint64(len(out))
	s.m.samples.Add(n)
	tierName := "convolved"
	if compiled {
		tierName = "compiled"
		s.m.tierCompiledSamples.Add(n)
		s.m.tierCompiledNanos.Add(uint64(took.Nanoseconds()))
	} else {
		s.m.tierConvolvedSamples.Add(n)
		s.m.tierConvolvedNanos.Add(uint64(took.Nanoseconds()))
	}
	// Both tiers observe, so a promoted key keeps looking hot and its
	// per-σ ledger survives promotion.
	s.tier.Observe(sigma, mu, len(out))
	tr.SetTier(tierName)
	w.Header().Set(tierHeader, tierName)
	return true
}

// arbitraryRequest is the /v1/arbitrary request schema.
type arbitraryRequest struct {
	// Count is the number of samples wanted (1 ≤ Count ≤ MaxCount).
	Count int `json:"count"`
	// Sigma is the free-form standard deviation (required, within the
	// served bounds — see /healthz).
	Sigma float64 `json:"sigma"`
	// Mu is the center (optional, default 0).
	Mu float64 `json:"mu,omitempty"`
}

// arbitraryResponse is the /v1/arbitrary response schema.
type arbitraryResponse struct {
	Sigma   float64 `json:"sigma"`
	Mu      float64 `json:"mu"`
	Count   int     `json:"count"`
	Samples []int   `json:"samples"`
}

func (s *Server) handleArbitrary(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req arbitraryRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Count < 1 {
		writeError(w, http.StatusBadRequest, "count must be >= 1")
		return
	}
	if req.Count > s.cfg.MaxCount {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("count %d exceeds limit %d", req.Count, s.cfg.MaxCount))
		return
	}
	out := make([]int, req.Count)
	if s.serveFreeform(w, r, epArbitrary, req.Sigma, req.Mu, out) {
		writeJSON(w, http.StatusOK, arbitraryResponse{Sigma: req.Sigma, Mu: req.Mu, Count: req.Count, Samples: out})
	}
}

// serveFreeformSigma handles a /v1/samples request whose σ names no
// precompiled pool: with the arbitrary layer enabled, any parseable σ in
// bounds is served at μ = 0, so the endpoint's σ menu is the continuous
// admissible range rather than the -sigmas list.  Responses keep the
// request's σ spelling.
func (s *Server) serveFreeformSigma(w http.ResponseWriter, r *http.Request, req samplesRequest) {
	sigma, err := strconv.ParseFloat(req.Sigma, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("unknown sigma %q (precompiled: %v; free-form σ must be a decimal)", req.Sigma, s.cfg.Sigmas))
		return
	}
	out := make([]int, req.Count)
	if s.serveFreeform(w, r, epSamples, sigma, 0, out) {
		writeJSON(w, http.StatusOK, samplesResponse{Sigma: req.Sigma, Count: req.Count, Samples: out})
	}
}
