package server

import (
	"context"
	"crypto/sha256"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"slices"
	"sync"
	"time"

	"ctgauss"
	"ctgauss/falcon"
	"ctgauss/internal/bitslice/dispatch"
	"ctgauss/internal/obs"
	"ctgauss/internal/prng"
	"ctgauss/internal/tier"
)

// Config wires a Server.  The zero value of optional fields picks the
// documented defaults; Sigmas must name at least one σ.
type Config struct {
	// Sigmas are the standard deviations served at /v1/samples; pools for
	// all of them are built (or loaded from the registry cache) at
	// startup, so request latency never includes a circuit build.  The
	// first entry is the default σ for requests that omit the field.
	Sigmas []string
	// PoolShards is the shard count of each sampling pool (0 = NumCPU).
	PoolShards int
	// Seed is the master sampling seed; each σ pool derives its own seed
	// from it with domain separation (PoolSeed).  Defaults to a fixed,
	// publicly known development seed — set fresh randomness in
	// production.
	Seed []byte
	// PRNG selects the generator of every sampling stream — σ pools,
	// the arbitrary layer and promoted tier pools: "chacha20",
	// "shake256" or "aes-ctr".  Empty means prng.Serving(): "aes-ctr"
	// where crypto/aes runs on AES instructions, "chacha20" otherwise.
	// Falcon signing keeps its own ChaCha20 streams.
	PRNG string
	// Prefetch is the refill lookahead per pool shard on the engine
	// runtime: 0 = the pool default (double buffering), negative =
	// synchronous refill under the shard lock, positive = that many
	// refills of lookahead.  It also applies to the arbitrary layer's
	// base-draw streams.  Served streams are bit-identical at any
	// setting.
	Prefetch int
	// PrefetchBySigma overrides Prefetch per served σ (same encoding).
	PrefetchBySigma map[string]int

	// FalconKey, when set, is the signing key served by the Falcon
	// endpoints.  Otherwise a key is generated deterministically from
	// FalconN and FalconSeed; FalconN = 0 disables the Falcon endpoints.
	FalconKey    *falcon.PrivateKey
	FalconN      int
	FalconSeed   []byte
	FalconKind   falcon.BaseSamplerKind
	FalconShards int // signer pool shard count (0 = NumCPU)

	// MaxCount caps the per-request sample count (default 65536); larger
	// requests get 413.
	MaxCount int
	// QueueDepth bounds concurrently admitted requests per endpoint
	// (default 256); excess load is rejected with 429 instead of queueing
	// without bound.
	QueueDepth int
	// RequestTimeout bounds each admitted request's handler (0 = no
	// limit): the request context is cancelled at the deadline, so a draw
	// stuck behind a poisoned shard's restart fails with 503 + Retry-After
	// instead of holding its admission slot indefinitely.
	RequestTimeout time.Duration

	// DisableArbitrary turns off the free-form-(σ, μ) convolution layer:
	// the /v1/arbitrary endpoint and the free-form σ fallback of
	// /v1/samples.  By default the layer is on, so the daemon serves the
	// whole admissible σ range from one compiled base set.
	DisableArbitrary bool
	// ArbitraryBases overrides the convolution base set (default
	// {"2", "6.15543"}); the whole set is built — in parallel — as one
	// registry artifact at startup.
	ArbitraryBases []string
	// ArbitraryShards is the arbitrary sampler's shard count (0 =
	// NumCPU).
	ArbitraryShards int

	// TierPromoteRPS enables hot-(σ, μ=0) tiering when > 0: free-form σ
	// keys whose sliding-window sample rate reaches this threshold are
	// promoted in the background onto direct compiled pools (the
	// convolved tier costs 4–20× more per sample; /metrics exposes both
	// tiers' costs as ctgaussd_tier_sample_seconds_total), and demoted
	// at a quarter of it.  0 turns tiering off: the key table still
	// keeps the per-σ ledger, but nothing is promoted.  Requires the
	// arbitrary layer (DisableArbitrary=false).
	TierPromoteRPS float64
	// TierWindow is the sliding-window length rates are measured over
	// (default 10s); promotions are evaluated every quarter window.
	TierWindow time.Duration
	// TierMaxPools bounds concurrently promoted compiled pools
	// (default 4).
	TierMaxPools int

	// Trace enables end-to-end request tracing: every request gets an
	// X-Ctgauss-Trace ID, per-stage timings flow into the
	// ctgaussd_stage_seconds{stage,endpoint} histograms, and the stage
	// breakdown rides back on the X-Ctgauss-Stages response trailer.
	// Off by default — the hot-path hooks then reduce to one atomic
	// check and the served streams are bit-identical either way.
	Trace bool
	// SlowRequest, when > 0, emits a structured slow-request record
	// (log/slog) for requests slower than this, with the stage
	// breakdown and trace ID.  Implies Trace.
	SlowRequest time.Duration
	// SlowLogMinInterval rate-limits slow-request records: at most one
	// per interval (0 = 100ms default; negative = log every one).
	SlowLogMinInterval time.Duration
	// Logger receives the server's structured events: slow-request
	// records and tier-transition lines.  nil = slog.Default().
	Logger *slog.Logger
}

// Endpoint names used for metrics and admission queues.
const (
	epSamples   = "samples"
	epArbitrary = "arbitrary"
	epSign      = "falcon_sign"
	epVerify    = "falcon_verify"
	epKey       = "falcon_key"
)

// Server is the ctgaussd HTTP serving layer: the handler set plus the
// drain/backpressure machinery around the sampling and signing pools.
// Construct with New, mount Handler, stop with Drain.
type Server struct {
	cfg          Config
	defaultSigma string
	pools        map[string]*ctgauss.Pool // the precompiled σ menu
	arb          *ctgauss.Arbitrary       // nil when the arbitrary layer is disabled
	tier         *tier.Controller         // free-form key table; nil exactly when arb is
	signers      *falcon.SignerPool
	pubEnc       string // base64 EncodePublic, fixed at startup
	m            *metrics
	obs          *obs.Observer
	logger       *slog.Logger
	queues       map[string]chan struct{}
	handler      http.Handler
	start        time.Time

	mu        sync.Mutex
	draining  bool
	inflight  sync.WaitGroup
	closeOnce sync.Once

	// testHook, when set, runs inside every admitted request after the
	// admission queue slot is taken — test instrumentation for drain and
	// backpressure behaviour.
	testHook func(endpoint string)
}

// PoolSeed derives the sampling-pool seed for one σ from the server's
// master seed with domain separation.  Exported so clients (and tests)
// can reconstruct a pool that is stream-identical to the served one.
func PoolSeed(master []byte, sigma string) []byte {
	h := sha256.New()
	h.Write([]byte("ctgauss/server/samples"))
	h.Write([]byte(sigma))
	h.Write([]byte{0})
	h.Write(master)
	return h.Sum(nil)
}

// falconPoolSeed mirrors PoolSeed for the signing pool.
func falconPoolSeed(master []byte) []byte {
	h := sha256.New()
	h.Write([]byte("ctgauss/server/falcon"))
	h.Write(master)
	return h.Sum(nil)
}

// ArbitrarySeed derives the arbitrary-sampler seed from the server's
// master seed with domain separation.  Exported so clients (and tests)
// can reconstruct a sampler stream-identical to the served one.
func ArbitrarySeed(master []byte) []byte {
	h := sha256.New()
	h.Write([]byte("ctgauss/server/arbitrary"))
	h.Write(master)
	return h.Sum(nil)
}

// New builds every pool in cfg and returns a ready Server.
func New(cfg Config) (*Server, error) {
	if len(cfg.Sigmas) == 0 {
		return nil, fmt.Errorf("server: config needs at least one sigma")
	}
	if cfg.MaxCount <= 0 {
		cfg.MaxCount = 65536
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 256
	}
	if cfg.Seed == nil {
		cfg.Seed = []byte("ctgaussd-default-seed")
	}
	if cfg.PRNG == "" {
		cfg.PRNG = prng.Serving()
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.Default()
	}
	endpoints := []string{epSamples, epArbitrary, epSign, epVerify, epKey}
	s := &Server{
		cfg:          cfg,
		defaultSigma: cfg.Sigmas[0],
		pools:        make(map[string]*ctgauss.Pool),
		m:            newMetrics(endpoints),
		obs: obs.New(obs.Config{
			Trace:              cfg.Trace,
			SlowRequest:        cfg.SlowRequest,
			SlowLogMinInterval: cfg.SlowLogMinInterval,
			Logger:             logger,
		}, endpoints),
		logger: logger,
		queues: make(map[string]chan struct{}),
		start:  time.Now(),
	}
	// Catch per-σ prefetch overrides that name no served σ (a typo'd or
	// differently spelled value would otherwise leave that pool silently
	// running in the wrong refill mode).
	for sigma := range cfg.PrefetchBySigma {
		if !slices.Contains(cfg.Sigmas, sigma) {
			return nil, fmt.Errorf("server: PrefetchBySigma names σ %q, which is not served (sigmas: %v)", sigma, cfg.Sigmas)
		}
	}
	for _, sigma := range cfg.Sigmas {
		if _, dup := s.pools[sigma]; dup {
			return nil, fmt.Errorf("server: sigma %q listed twice", sigma)
		}
		prefetch := cfg.Prefetch
		if p, ok := cfg.PrefetchBySigma[sigma]; ok {
			prefetch = p
		}
		pool, err := ctgauss.NewPoolWithConfig(ctgauss.Config{
			Sigma:    sigma,
			Seed:     PoolSeed(cfg.Seed, sigma),
			PRNG:     cfg.PRNG,
			Prefetch: prefetch,
		}, cfg.PoolShards)
		if err != nil {
			return nil, fmt.Errorf("server: building σ=%s pool: %w", sigma, err)
		}
		s.pools[sigma] = pool
	}

	if !cfg.DisableArbitrary {
		arb, err := ctgauss.NewArbitrary(ctgauss.ArbitraryConfig{
			BaseSigmas: cfg.ArbitraryBases,
			Shards:     cfg.ArbitraryShards,
			Seed:       ArbitrarySeed(cfg.Seed),
			PRNG:       cfg.PRNG,
			Prefetch:   cfg.Prefetch,
		})
		if err != nil {
			return nil, fmt.Errorf("server: building arbitrary base set: %w", err)
		}
		s.arb = arb
		// The tier controller is the free-form path's only per-σ state,
		// so it exists whenever the layer does.  With TierPromoteRPS ≤ 0
		// it runs no ticker and never promotes.
		tc, err := tier.New(tier.Config{
			PromoteRPS: cfg.TierPromoteRPS,
			Window:     cfg.TierWindow,
			MaxPools:   cfg.TierMaxPools,
			// A promoted pool derives its seed exactly as a -sigmas
			// deployment of the same σ would (PoolSeed + registry artifact),
			// so promotion changes which machinery serves the key, never the
			// stream a fixed deployment of that σ would serve.
			Build: func(sigma string) (tier.Pool, error) {
				return ctgauss.NewPoolWithConfig(ctgauss.Config{
					Sigma:    sigma,
					Seed:     PoolSeed(cfg.Seed, sigma),
					PRNG:     cfg.PRNG,
					Prefetch: cfg.Prefetch,
				}, cfg.PoolShards)
			},
			Degraded: arb.Degraded,
			// Tier transitions (promoting/promoted/build-failed/demoting)
			// land in the structured log instead of vanishing.
			Logf: func(format string, args ...any) {
				s.logger.Info(fmt.Sprintf(format, args...), "component", "tier")
			},
		})
		if err != nil {
			return nil, fmt.Errorf("server: tier controller: %w", err)
		}
		s.tier = tc
	}

	sk := cfg.FalconKey
	if sk == nil && cfg.FalconN != 0 {
		seed := cfg.FalconSeed
		if seed == nil {
			seed = falconPoolSeed(cfg.Seed)
		}
		var err error
		sk, err = falcon.Keygen(cfg.FalconN, seed)
		if err != nil {
			return nil, fmt.Errorf("server: falcon keygen: %w", err)
		}
	}
	if sk != nil {
		signSeed := cfg.FalconSeed
		if signSeed == nil {
			signSeed = falconPoolSeed(cfg.Seed)
		}
		pool, err := falcon.NewSignerPool(sk, cfg.FalconKind, signSeed, cfg.FalconShards)
		if err != nil {
			return nil, fmt.Errorf("server: falcon signer pool: %w", err)
		}
		s.signers = pool
		s.pubEnc = base64.StdEncoding.EncodeToString(sk.Public().EncodePublic())
	}

	mux := http.NewServeMux()
	mux.Handle("/v1/samples", s.endpoint(epSamples, s.handleSamples))
	if s.arb != nil {
		mux.Handle("/v1/arbitrary", s.endpoint(epArbitrary, s.handleArbitrary))
	}
	if s.signers != nil {
		mux.Handle("/v1/falcon/sign", s.endpoint(epSign, s.handleSign))
		mux.Handle("/v1/falcon/verify", s.endpoint(epVerify, s.handleVerify))
		mux.Handle("/v1/falcon/key", s.endpoint(epKey, s.handleKey))
	}
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/metrics", s.handleMetrics)
	s.handler = mux
	for _, e := range s.m.endpoints {
		s.queues[e.name] = make(chan struct{}, cfg.QueueDepth)
	}
	return s, nil
}

// Handler returns the HTTP handler tree (mountable under httptest or an
// http.Server).
func (s *Server) Handler() http.Handler { return s.handler }

// Sigmas returns the precompiled σ menu in configuration order (the
// first entry is the default).  The acceptance harness sweeps exactly
// this served surface rather than guessing it from flags.
func (s *Server) Sigmas() []string { return append([]string(nil), s.cfg.Sigmas...) }

// ArbitraryBounds reports the admissible free-form σ range of the
// convolution layer, or ok=false when the layer is disabled — the other
// half of the served surface the acceptance sweep must cover.
func (s *Server) ArbitraryBounds() (min, max float64, ok bool) {
	if s.arb == nil {
		return 0, 0, false
	}
	min, max = s.arb.Bounds()
	return min, max, true
}

// FalconEnabled reports whether the Falcon endpoints are mounted.
func (s *Server) FalconEnabled() bool { return s.signers != nil }

// Tier returns the hot-key promotion controller, or nil when tiering is
// disabled.  Exported for tests and the acceptance harness, which force
// transitions to pin the promoted surface deterministically.
func (s *Server) Tier() *tier.Controller {
	if s.cfg.TierPromoteRPS <= 0 {
		return nil
	}
	return s.tier
}

// Drain gracefully stops the server: new requests are refused with 503
// while requests already admitted run to completion; Drain returns once
// the last one finishes.  The HTTP listener itself is the caller's to
// close (http.Server.Shutdown pairs with Drain in cmd/ctgaussd).
func (s *Server) Drain() {
	s.stopAccepting()
	s.inflight.Wait()
}

// Close drains the server and then releases the refill runtime: the
// sampling pools' and arbitrary layer's background producer goroutines
// stop, and the signer pool is gated.  The drain-first ordering is what
// makes engine shutdown safe — no request can be mid-draw when the
// rings close.  /metrics and /healthz stay readable (their ledgers are
// snapshots).  Closing twice is harmless.
func (s *Server) Close() {
	s.Drain()
	s.closeOnce.Do(func() {
		// The tier controller first: it drains and closes the promoted
		// pools it owns (no request can be mid-draw after Drain).
		if s.tier != nil {
			s.tier.Close()
		}
		for _, pool := range s.pools {
			pool.Close()
		}
		if s.arb != nil {
			s.arb.Close()
		}
		if s.signers != nil {
			s.signers.Close()
		}
		// Release the observability gate last: no request can be
		// in-flight past Drain, so no trace outlives its Observer.
		s.obs.Close()
	})
}

func (s *Server) stopAccepting() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
}

// tryEnter admits a request past the drain gate, registering it with the
// in-flight group; callers must exit() after serving.
func (s *Server) tryEnter() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.inflight.Add(1)
	return true
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// statusRecorder captures the response status for metrics and carries
// the request's trace (nil when tracing is off) so writeJSON and
// decodeBody can time the encode/decode stages without changing their
// signatures.
type statusRecorder struct {
	http.ResponseWriter
	status int
	tr     *obs.Trace
}

// traceOf extracts the trace a handler's ResponseWriter carries — the
// endpoint wrapper always hands handlers a *statusRecorder.  Returns
// nil (and all Trace methods no-op) when tracing is off or w is a bare
// writer (healthz/metrics, tests).
func traceOf(w http.ResponseWriter) *obs.Trace {
	if rec, ok := w.(*statusRecorder); ok {
		return rec.tr
	}
	return nil
}

// tracedCtx extracts the request trace from a context, paying only the
// global atomic check when tracing is off.
func tracedCtx(ctx context.Context) *obs.Trace {
	if !obs.TraceEnabled() {
		return nil
	}
	return obs.FromContext(ctx)
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// retryAfterSeconds is the backoff hint sent with every 429 and 503:
// both conditions clear on the order of an admission slot freeing or a
// producer restart completing (the restart backoff caps at 250ms), so
// one second is a safe, deliberately coarse retry cadence.
const retryAfterSeconds = "1"

// statusClientClosedRequest is the non-standard 499 recording a request
// whose client went away before a response was written (the client
// never sees it; it keeps the status recorder and logs honest).
const statusClientClosedRequest = 499

// writeUnavailable writes a 503 with the Retry-After hint — the shape of
// every transient refusal (drain, degraded shard, server-side timeout).
func writeUnavailable(w http.ResponseWriter, msg string) {
	w.Header().Set("Retry-After", retryAfterSeconds)
	writeError(w, http.StatusServiceUnavailable, msg)
}

// writeDrawError maps a draw failure to a response: cancellation →
// 499 (client gone) or 503 + Retry-After (server-side deadline), both
// counted in the endpoint's cancelled metric; a degraded or closing
// pool → 503 + Retry-After; anything else is a request-validation error
// (σ out of bounds, non-finite μ) → 400.
func (s *Server) writeDrawError(w http.ResponseWriter, endpoint string, err error) {
	em := s.m.endpoint(endpoint)
	switch {
	case errors.Is(err, context.Canceled):
		em.cancelled.Add(1)
		writeError(w, statusClientClosedRequest, "request cancelled")
	case errors.Is(err, context.DeadlineExceeded):
		em.cancelled.Add(1)
		writeUnavailable(w, "request timed out waiting for samples")
	case errors.Is(err, ctgauss.ErrPoolDegraded), errors.Is(err, ctgauss.ErrArbitraryDegraded), errors.Is(err, ctgauss.ErrClosed):
		writeUnavailable(w, "sampling runtime unavailable: "+err.Error())
	default:
		writeError(w, http.StatusBadRequest, err.Error())
	}
}

// endpoint wraps a handler with the serving discipline every /v1 route
// shares: drain gate (503), bounded admission queue (429), per-request
// deadline, cancellation checks, in-flight accounting, and
// latency/request metrics.  429 and 503 responses carry a Retry-After
// hint so well-behaved clients back off instead of hammering.
func (s *Server) endpoint(name string, h http.HandlerFunc) http.Handler {
	em := s.m.endpoint(name)
	epIdx := s.m.index(name)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reqStart := time.Now()
		tr := s.obs.Start(epIdx) // nil unless tracing is enabled
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK, tr: tr}
		if tr != nil {
			// The trace ID goes out on every traced response — refusals
			// included — and the stage breakdown rides the response
			// trailer (declared now, valued after the handler; writeJSON
			// never sets Content-Length, so responses are chunked and
			// trailers survive).
			w.Header().Set(obs.TraceHeader, tr.ID())
			w.Header().Set("Trailer", obs.StagesHeader)
			r = r.WithContext(obs.ContextWith(r.Context(), tr))
			defer func() {
				s.obs.Finish(tr, rec.status, time.Since(reqStart))
				w.Header().Set(obs.StagesHeader, tr.EncodeStages())
			}()
		}
		if !s.tryEnter() {
			em.refused.Add(1)
			writeUnavailable(rec, "server is draining")
			return
		}
		defer s.inflight.Done()
		// A client that disconnected while upstream never takes an
		// admission slot: its work would be thrown away anyway.
		if r.Context().Err() != nil {
			em.cancelled.Add(1)
			rec.status = statusClientClosedRequest
			return
		}
		queue := s.queues[name]
		select {
		case queue <- struct{}{}:
		default:
			em.rejected.Add(1)
			rec.Header().Set("Retry-After", retryAfterSeconds)
			writeError(rec, http.StatusTooManyRequests, "server overloaded: admission queue full")
			return
		}
		defer func() { <-queue }()
		tr.End(obs.StageQueueWait, reqStart)
		if s.cfg.RequestTimeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		if s.testHook != nil {
			s.testHook(name)
		}
		em.requests.Add(1)
		em.inflight.Add(1)
		defer em.inflight.Add(-1)
		start := time.Now()
		h(rec, r)
		em.lat.Observe(time.Since(start).Nanoseconds())
		// 499s are client departures, not server faults; they have their
		// own counter.
		if rec.status >= 400 && rec.status != statusClientClosedRequest {
			em.errors.Add(1)
		}
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	tr := traceOf(w)
	t0 := tr.Now()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
	tr.End(obs.StageEncode, t0)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

// decodeBody parses a JSON request body into v with a 1 MiB cap.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	tr := traceOf(w)
	t0 := tr.Now()
	r.Body = http.MaxBytesReader(w, r.Body, 1<<20)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	tr.End(obs.StageDecode, t0)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return false
	}
	return true
}

// samplesRequest is the /v1/samples request schema.
type samplesRequest struct {
	// Count is the number of samples wanted (1 ≤ Count ≤ MaxCount).
	Count int `json:"count"`
	// Sigma selects the distribution; empty means the server default.
	Sigma string `json:"sigma,omitempty"`
}

// samplesResponse is the /v1/samples response schema.
type samplesResponse struct {
	Sigma   string `json:"sigma"`
	Count   int    `json:"count"`
	Samples []int  `json:"samples"`
}

func (s *Server) handleSamples(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req samplesRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Sigma == "" {
		req.Sigma = s.defaultSigma
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
	pool, ok := s.pools[req.Sigma]
	if !ok {
		// σ without a precompiled pool: fall through to the convolution
		// layer (free-form σ), or report the precompiled menu when the
		// layer is off.
		if s.arb != nil {
			s.serveFreeformSigma(w, r, req)
			return
		}
		writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown sigma %q (served: %v)", req.Sigma, s.cfg.Sigmas))
		return
	}
	out := make([]int, req.Count)
	tr := traceOf(w)
	t0 := tr.Now()
	err := pool.Take(r.Context(), out)
	tr.End(obs.StageCoalesce, t0)
	if err != nil {
		s.writeDrawError(w, epSamples, err)
		return
	}
	s.m.samples.Add(uint64(req.Count))
	writeJSON(w, http.StatusOK, samplesResponse{Sigma: req.Sigma, Count: req.Count, Samples: out})
}

// signRequest is the /v1/falcon/sign request schema.
type signRequest struct {
	// Message is the base64 (standard encoding) payload to sign.
	Message string `json:"message"`
}

// signResponse is the /v1/falcon/sign response schema.
type signResponse struct {
	// Signature is the base64 of Signature.Encode (salt ‖ length header ‖
	// compressed s1).
	Signature string `json:"signature"`
}

func (s *Server) handleSign(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req signRequest
	if !decodeBody(w, r, &req) {
		return
	}
	msg, err := base64.StdEncoding.DecodeString(req.Message)
	if err != nil {
		writeError(w, http.StatusBadRequest, "message is not valid base64: "+err.Error())
		return
	}
	tr := traceOf(w)
	t0 := tr.Now()
	sig, err := s.signers.SignContext(r.Context(), msg)
	tr.End(obs.StageCoalesce, t0)
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			s.writeDrawError(w, epSign, err)
			return
		}
		// Signing only fails when the attempt budget is exhausted —
		// astronomically unlikely with a healthy key; report it as a
		// server-side failure, not a client error.
		writeError(w, http.StatusInternalServerError, "signing failed: "+err.Error())
		return
	}
	s.m.signs.Add(1)
	writeJSON(w, http.StatusOK, signResponse{Signature: base64.StdEncoding.EncodeToString(sig.Encode())})
}

// verifyRequest is the /v1/falcon/verify request schema.
type verifyRequest struct {
	Message   string `json:"message"`
	Signature string `json:"signature"`
	// PublicKey optionally carries a base64 EncodePublic key to verify
	// against; empty means the server's own key.
	PublicKey string `json:"public_key,omitempty"`
}

// verifyResponse is the /v1/falcon/verify response schema.  A failed
// verification is a 200 with Valid=false — the transport succeeded; the
// signature just doesn't check out.
type verifyResponse struct {
	Valid  bool   `json:"valid"`
	Reason string `json:"reason,omitempty"`
}

func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req verifyRequest
	if !decodeBody(w, r, &req) {
		return
	}
	msg, err := base64.StdEncoding.DecodeString(req.Message)
	if err != nil {
		writeError(w, http.StatusBadRequest, "message is not valid base64: "+err.Error())
		return
	}
	rawSig, err := base64.StdEncoding.DecodeString(req.Signature)
	if err != nil {
		writeError(w, http.StatusBadRequest, "signature is not valid base64: "+err.Error())
		return
	}
	s.m.verifies.Add(1)
	sig, err := falcon.DecodeSignature(rawSig)
	if err != nil {
		writeJSON(w, http.StatusOK, verifyResponse{Valid: false, Reason: err.Error()})
		return
	}
	if req.PublicKey != "" {
		rawPk, err := base64.StdEncoding.DecodeString(req.PublicKey)
		if err != nil {
			writeError(w, http.StatusBadRequest, "public_key is not valid base64: "+err.Error())
			return
		}
		pk, err := falcon.DecodePublic(rawPk)
		if err != nil {
			writeError(w, http.StatusBadRequest, "public_key malformed: "+err.Error())
			return
		}
		if err := pk.Verify(msg, sig); err != nil {
			writeJSON(w, http.StatusOK, verifyResponse{Valid: false, Reason: err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, verifyResponse{Valid: true})
		return
	}
	if err := s.signers.Verify(msg, sig); err != nil {
		writeJSON(w, http.StatusOK, verifyResponse{Valid: false, Reason: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, verifyResponse{Valid: true})
}

// keyResponse is the /v1/falcon/key response schema.
type keyResponse struct {
	Params    string `json:"params"`
	N         int    `json:"n"`
	PublicKey string `json:"public_key"` // base64 EncodePublic
}

func (s *Server) handleKey(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	p := s.signers.Public().Params
	writeJSON(w, http.StatusOK, keyResponse{Params: p.Name, N: p.N, PublicKey: s.pubEnc})
}

// shardHealthJSON is one shard's entry in a pool's /healthz listing.
type shardHealthJSON struct {
	Shard int `json:"shard"`
	// Poisoned: the shard's last refill panicked and its producer is
	// restarting with backoff (Dead=false) or out of budget (Dead=true);
	// draws fail over to the remaining shards meanwhile.
	Poisoned bool `json:"poisoned"`
	Dead     bool `json:"dead"`
	// Restarts counts recovered refill panics over the shard's lifetime.
	Restarts         uint64 `json:"restarts"`
	DiscardedRefills uint64 `json:"discarded_refills"`
}

// poolHealthJSON is one pool's per-shard health in /healthz ("arbitrary"
// labels the free-form layer's merged base-engine view).
type poolHealthJSON struct {
	Sigma    string            `json:"sigma"`
	Poisoned int               `json:"poisoned"` // shards currently poisoned
	Shards   []shardHealthJSON `json:"shards"`
}

// healthResponse is the /healthz schema.
type healthResponse struct {
	Status        string  `json:"status"` // "ok", "degraded" or "draining"
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Build identifies the running binary: the -ldflags-stamped version
	// (ctgauss/internal/obs.Version), the Go toolchain, and the VCS
	// revision when built from a checkout.
	Build obs.BuildInfo `json:"build"`
	// Trace reports whether request tracing (X-Ctgauss-Trace, stage
	// histograms) is enabled on this server.
	Trace bool `json:"trace"`
	// Simd is the circuit evaluation backend: which kernel set executes
	// the bitsliced op stream (portable/avx2/avx512), its native
	// evaluation width, the backends this CPU supports, and any
	// CTGAUSS_SIMD override (plus why it was not honored, if so).
	Simd dispatch.Info `json:"simd"`
	// PRNG is the generator this replica's sampling streams run on (σ
	// pools, arbitrary layer, tier pools): Config.PRNG, or
	// prng.Serving() when that was empty.
	PRNG         string   `json:"prng"`
	Sigmas       []string `json:"sigmas"`
	DefaultSigma string   `json:"default_sigma"`
	PoolShards   int      `json:"pool_shards"`
	// Prefetch is the default-σ pool's resolved refill lookahead depth
	// (0 = synchronous refill).
	Prefetch int `json:"prefetch"`
	// Pools lists per-shard fault-isolation state for every serving pool
	// (σ pools plus, when enabled, the arbitrary layer under sigma
	// "arbitrary").  Status is "degraded" while any shard is poisoned;
	// the daemon still serves from the healthy shards.
	Pools []poolHealthJSON `json:"pools"`
	// Arbitrary describes the free-form-(σ, μ) layer when enabled: its
	// base set and the admissible σ range.
	Arbitrary         bool     `json:"arbitrary"`
	ArbitraryBases    []string `json:"arbitrary_bases,omitempty"`
	ArbitrarySigmaMin float64  `json:"arbitrary_sigma_min,omitempty"`
	ArbitrarySigmaMax float64  `json:"arbitrary_sigma_max,omitempty"`
	// Tier describes the hot-key promotion controller when enabled:
	// thresholds, pool budget, and every tracked σ's tier state.
	Tier         *tierHealthJSON `json:"tier,omitempty"`
	Falcon       string          `json:"falcon,omitempty"` // parameter-set name
	FalconShards int             `json:"falcon_shards,omitempty"`
}

// tierKeyHealthJSON is one tracked σ's tier state in /healthz.
type tierKeyHealthJSON struct {
	Sigma float64 `json:"sigma"`
	// State is "convolved", "building", "compiled" or "draining".
	State string `json:"state"`
	// RatePerSec is the sliding-window μ=0 sample rate.
	RatePerSec float64 `json:"rate_per_sec"`
	// Samples is the lifetime observed sample count for this σ.
	Samples uint64 `json:"samples"`
	// BuildResolving is set for building keys whose circuit resolution is
	// currently in flight in the process-wide registry (as opposed to a
	// build queued behind the registry's singleflight or finishing pool
	// assembly).
	BuildResolving bool `json:"build_resolving,omitempty"`
}

// tierHealthJSON is the /healthz tier block.
type tierHealthJSON struct {
	PromoteRPS     float64             `json:"promote_rps"`
	DemoteRPS      float64             `json:"demote_rps"`
	WindowSeconds  float64             `json:"window_seconds"`
	MaxPools       int                 `json:"max_pools"`
	Pools          int                 `json:"pools"` // building + compiled + draining
	Promotions     uint64              `json:"promotions"`
	Demotions      uint64              `json:"demotions"`
	BuildsFailed   uint64              `json:"builds_failed"`
	BuildsDeferred uint64              `json:"builds_deferred"`
	Keys           []tierKeyHealthJSON `json:"keys,omitempty"`
}

// poolHealthOf renders one engine health snapshot for /healthz.
func poolHealthOf(label string, hs []ctgauss.ShardHealth) poolHealthJSON {
	ph := poolHealthJSON{Sigma: label}
	for i, h := range hs {
		if h.Poisoned {
			ph.Poisoned++
		}
		ph.Shards = append(ph.Shards, shardHealthJSON{
			Shard:            i,
			Poisoned:         h.Poisoned,
			Dead:             h.Dead,
			Restarts:         h.Restarts,
			DiscardedRefills: h.DiscardedRefills,
		})
	}
	return ph
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	resp := healthResponse{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Build:         obs.Build(),
		Trace:         s.obs.Enabled(),
		Simd:          dispatch.Snapshot(),
		PRNG:          s.cfg.PRNG,
		Sigmas:        s.cfg.Sigmas,
		DefaultSigma:  s.defaultSigma,
		PoolShards:    s.pools[s.defaultSigma].Size(),
		Prefetch:      s.pools[s.defaultSigma].EngineStats().Prefetch,
	}
	for _, sigma := range s.cfg.Sigmas {
		ph := poolHealthOf(sigma, s.pools[sigma].Health())
		if ph.Poisoned > 0 {
			status = "degraded"
		}
		resp.Pools = append(resp.Pools, ph)
	}
	if s.arb != nil {
		resp.Arbitrary = true
		resp.ArbitraryBases = s.arb.Stats().Bases
		resp.ArbitrarySigmaMin, resp.ArbitrarySigmaMax = s.arb.Bounds()
		ph := poolHealthOf("arbitrary", s.arb.Health())
		if ph.Poisoned > 0 {
			status = "degraded"
		}
		resp.Pools = append(resp.Pools, ph)
	}
	if s.Tier() != nil {
		tcfg := s.tier.Config()
		tst := s.tier.Stats()
		th := &tierHealthJSON{
			PromoteRPS:     tcfg.PromoteRPS,
			DemoteRPS:      tcfg.DemoteRPS(),
			WindowSeconds:  tcfg.Window.Seconds(),
			MaxPools:       tst.MaxPools,
			Pools:          tst.Pools,
			Promotions:     tst.Promotions,
			Demotions:      tst.Demotions,
			BuildsFailed:   tst.BuildsFailed,
			BuildsDeferred: tst.BuildsDeferred,
		}
		for _, k := range s.tier.Snapshot() {
			kh := tierKeyHealthJSON{
				Sigma:      k.Sigma,
				State:      k.State.String(),
				RatePerSec: k.Rate,
				Samples:    k.Samples,
			}
			if k.State == tier.Building {
				kh.BuildResolving = ctgauss.BuildInFlight(ctgauss.Config{Sigma: tier.SigmaString(k.Sigma)})
			}
			th.Keys = append(th.Keys, kh)
		}
		resp.Tier = th
	}
	if s.signers != nil {
		resp.Falcon = s.signers.Public().Params.Name
		resp.FalconShards = s.signers.Size()
	}
	if s.isDraining() {
		status = "draining"
	}
	resp.Status = status
	code := http.StatusOK
	if status == "draining" {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var sigmas []sigmaStats
	for sigma, pool := range s.pools {
		sigmas = append(sigmas, poolStats(sigma, pool))
	}
	var arb *arbStats
	if s.arb != nil {
		arb = newArbStats(s.arb, s.tier)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.m.writePrometheus(w, scrapeData{
		sigmas:   sigmas,
		arb:      arb,
		tiering:  s.Tier() != nil,
		prng:     s.cfg.PRNG,
		draining: s.isDraining(),
		uptime:   time.Since(s.start),
		stages:   s.obs.Scrape(),
	})
}
