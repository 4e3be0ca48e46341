// Command ctgaussd serves the repo's constant-time Gaussian sampling and
// Falcon signing pools over HTTP: batched draws at /v1/samples (request
// coalescing over a ctgauss.Pool per σ), /v1/falcon/sign and
// /v1/falcon/verify on a sharded signer pool, plus /healthz and
// Prometheus-text /metrics.  See docs/SERVING.md for the API reference.
//
// Usage:
//
//	ctgaussd                                  # σ=2, falcon-512, :8754
//	ctgaussd -sigmas 2,6.15543 -shards 8
//	ctgaussd -seed random                     # non-reproducible production seeds
//	ctgaussd -prng chacha20                   # pin the generator (default: aes-ctr on AES-NI, else chacha20)
//	ctgaussd -cache /var/cache/ctgauss        # persist circuits across restarts
//	ctgaussd -prefetch 4                      # deeper refill lookahead per shard
//	ctgaussd -prefetch sync                   # inline refills (pre-engine behaviour)
//	ctgaussd -prefetch 8,6.15543=sync         # per-σ depth overrides
//	ctgaussd -falcon-n 0                      # sampling only
//	ctgaussd -arbitrary=false                 # precompiled σ menu only
//	ctgaussd -arbitrary-bases 2,6.15543       # convolution base set
//	ctgaussd -tier-promote-rps 5000           # promote hot free-form σ to compiled pools
//	ctgaussd -falcon-kind convolve            # SamplerZ via the convolution layer
//	ctgaussd -trace -slow-request 50ms        # stage tracing + slow-request log
//	ctgaussd -log-format json                 # structured logs for collectors
//	ctgaussd -debug-addr 127.0.0.1:8755       # pprof/runtime-trace on a private listener
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: the listener stops
// accepting, in-flight requests drain (bounded by -drain-timeout), then
// the process exits.
package main

import (
	"cmp"
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ctgauss/falcon"
	"ctgauss/internal/bitslice/dispatch"
	"ctgauss/internal/obs"
	"ctgauss/internal/prng"
	"ctgauss/internal/server"
)

func main() {
	addr := flag.String("addr", ":8754", "listen address")
	sigmas := flag.String("sigmas", "2", "comma-separated σ values to serve (first is the default)")
	shards := flag.Int("shards", 0, "sampling pool shards per σ (0 = NumCPU)")
	seed := flag.String("seed", "", "master seed: hex, 'random' for fresh entropy, empty for the fixed dev seed")
	prngName := flag.String("prng", "", "sampling PRNG for σ pools, the arbitrary layer and tier pools: chacha20, shake256, aes-ctr; empty picks aes-ctr when Go's crypto/aes runs on AES instructions (AES-NI, SSE4.1, SSSE3, none turned off by GODEBUG) and chacha20 otherwise, since software AES is not constant time")
	prefetch := flag.String("prefetch", "", "refill lookahead per pool shard: a depth (e.g. 4), 'sync' for inline refills, or per-σ overrides '2=4,6.15543=sync' (empty = double buffering)")
	arbitrary := flag.Bool("arbitrary", true, "serve free-form (σ, μ) at /v1/arbitrary and free-form σ at /v1/samples")
	arbBases := flag.String("arbitrary-bases", "", "comma-separated base-set σ values for the convolution layer (default 2,6.15543)")
	arbShards := flag.Int("arbitrary-shards", 0, "arbitrary sampler shards (0 = NumCPU)")
	tierPromoteRPS := flag.Float64("tier-promote-rps", 0, "promote a free-form σ to a compiled pool when its sample rate reaches this (samples/sec over -tier-window; 0 disables tiering)")
	tierMaxPools := flag.Int("tier-max-pools", 4, "concurrently promoted compiled pools")
	tierWindow := flag.Duration("tier-window", 10*time.Second, "sliding window the tier promotion rate is measured over")
	falconN := flag.Int("falcon-n", 512, "Falcon ring degree (256/512/1024); 0 disables the Falcon endpoints")
	falconKind := flag.String("falcon-kind", "bitsliced", "base sampler: bitsliced, cdt, bytescan, linear, convolve")
	falconShards := flag.Int("falcon-shards", 0, "signer pool shards (0 = NumCPU)")
	queue := flag.Int("queue", 256, "per-endpoint admission queue depth (excess load gets 429)")
	maxCount := flag.Int("max-count", 65536, "largest per-request sample count")
	requestTimeout := flag.Duration("request-timeout", 0, "per-request handler deadline (0 = none); a draw stuck behind a restarting shard fails with 503 + Retry-After at the deadline")
	cacheDir := flag.String("cache", "", "circuit cache directory (sets CTGAUSS_CACHE_DIR)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown budget")
	trace := flag.Bool("trace", false, "per-request stage tracing: X-Ctgauss-Trace IDs, stage trailers and ctgaussd_stage_seconds histograms")
	slowRequest := flag.Duration("slow-request", 0, "log requests slower than this with their stage breakdown (implies -trace; 0 disables)")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
	debugAddr := flag.String("debug-addr", "", "separate listener for /debug/pprof (profiles, runtime traces); keep it private — empty disables")
	version := flag.Bool("version", false, "print build info and exit")
	flag.Parse()

	if *version {
		b := obs.Build()
		fmt.Printf("ctgaussd %s (%s", b.Version, b.GoVersion)
		if b.Revision != "" {
			rev := b.Revision
			if len(rev) > 12 {
				rev = rev[:12]
			}
			fmt.Printf(", %s", rev)
			if b.Modified {
				fmt.Printf("+dirty")
			}
		}
		simd := dispatch.Snapshot()
		fmt.Printf(") simd=%s width=%d available=%s\n",
			simd.Backend, simd.Width, strings.Join(simd.Available, ","))
		if simd.OverrideError != "" {
			fmt.Printf("simd override: %s\n", simd.OverrideError)
		}
		return
	}

	logger, err := buildLogger(*logFormat, *logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ctgaussd: %v\n", err)
		os.Exit(1)
	}
	slog.SetDefault(logger)
	fatalf := func(format string, args ...any) {
		logger.Error(fmt.Sprintf(format, args...))
		os.Exit(1)
	}

	if *cacheDir != "" {
		// Must land before the first registry.Shared() use (pool builds in
		// server.New latch it).
		os.Setenv("CTGAUSS_CACHE_DIR", *cacheDir)
	}

	masterSeed, reproducible, err := resolveSeed(*seed)
	if err != nil {
		fatalf("%v", err)
	}
	kind, err := parseKind(*falconKind)
	if err != nil {
		fatalf("%v", err)
	}

	prefetchGlobal, prefetchBySigma, err := parsePrefetch(*prefetch)
	if err != nil {
		fatalf("%v", err)
	}

	cfg := server.Config{
		Sigmas:           splitList(*sigmas),
		PoolShards:       *shards,
		Seed:             masterSeed,
		PRNG:             *prngName,
		Prefetch:         prefetchGlobal,
		PrefetchBySigma:  prefetchBySigma,
		FalconN:          *falconN,
		FalconKind:       kind,
		FalconShards:     *falconShards,
		MaxCount:         *maxCount,
		QueueDepth:       *queue,
		RequestTimeout:   *requestTimeout,
		DisableArbitrary: !*arbitrary,
		ArbitraryBases:   splitList(*arbBases),
		ArbitraryShards:  *arbShards,
		TierPromoteRPS:   *tierPromoteRPS,
		TierMaxPools:     *tierMaxPools,
		TierWindow:       *tierWindow,
		Trace:            *trace,
		SlowRequest:      *slowRequest,
		Logger:           logger,
	}
	buildStart := time.Now()
	s, err := server.New(cfg)
	if err != nil {
		fatalf("%v", err)
	}
	b := obs.Build()
	logger.Info("pools ready",
		"build_time", time.Since(buildStart).Round(time.Millisecond).String(),
		"sigmas", *sigmas, "falcon_n", *falconN,
		"version", b.Version, "go_version", b.GoVersion,
		"simd", dispatch.Active().String(), "simd_width", dispatch.Active().NativeWidth(),
		"prng", cmp.Or(*prngName, prng.Serving()))
	if msg := dispatch.Snapshot().OverrideError; msg != "" {
		logger.Warn("simd override not honored", "detail", msg)
	}
	if s.Tier() != nil {
		logger.Info("tiering enabled",
			"promote_rps", *tierPromoteRPS, "window", tierWindow.String(), "max_pools", *tierMaxPools)
	}
	if !reproducible {
		logger.Info("seed: fresh entropy (streams are not reproducible)")
	} else {
		logger.Warn("seed: deterministic — development only, use -seed random in production")
	}
	if *trace || *slowRequest > 0 {
		logger.Info("tracing enabled", "slow_request", slowRequest.String())
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	// The profiling surface lives on its own listener so the serving
	// address never exposes pprof.  Bind it to loopback or a private
	// interface: profiles and runtime traces leak internals by design.
	var debugSrv *http.Server
	if *debugAddr != "" {
		debugSrv = &http.Server{
			Addr:              *debugAddr,
			Handler:           obs.DebugHandler(),
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			if err := debugSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug listener failed", "addr", *debugAddr, "error", err.Error())
			}
		}()
		logger.Info("debug listener up (keep it private)", "addr", *debugAddr)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	logger.Info("listening", "addr", *addr)

	select {
	case err := <-errc:
		fatalf("%v", err)
	case <-ctx.Done():
	}
	logger.Info("shutting down: draining in-flight requests", "budget", drainTimeout.String())
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	done := make(chan struct{})
	go func() {
		// Close drains (refusing new work, waiting for admitted requests)
		// and then stops the refill runtime's producer goroutines;
		// Shutdown closes the listener and waits for connections.  Run
		// both so a request admitted just before the signal still
		// completes before the engines stop.
		s.Close()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Error("shutdown", "error", err.Error())
		}
		if debugSrv != nil {
			debugSrv.Shutdown(shutdownCtx)
		}
		close(done)
	}()
	select {
	case <-done:
		logger.Info("drained cleanly")
	case <-shutdownCtx.Done():
		logger.Warn("drain budget exceeded, exiting with requests in flight")
	}
}

// buildLogger maps the -log-format/-log-level flags to a slog.Logger on
// stderr.
func buildLogger(format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lvl = slog.LevelDebug
	case "info":
		lvl = slog.LevelInfo
	case "warn", "warning":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q (want debug, info, warn or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch strings.ToLower(format) {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	}
	return nil, fmt.Errorf("unknown -log-format %q (want text or json)", format)
}

// resolveSeed maps the -seed flag to seed bytes; the bool reports
// whether the run is reproducible.
func resolveSeed(s string) ([]byte, bool, error) {
	switch s {
	case "":
		return nil, true, nil // server.New's fixed dev default
	case "random":
		seed := make([]byte, 32)
		if _, err := rand.Read(seed); err != nil {
			return nil, false, fmt.Errorf("reading entropy: %w", err)
		}
		return seed, false, nil
	default:
		seed, err := hex.DecodeString(s)
		if err != nil {
			return nil, false, fmt.Errorf("-seed must be hex, 'random' or empty: %w", err)
		}
		return seed, true, nil
	}
}

func parseKind(s string) (falcon.BaseSamplerKind, error) {
	switch s {
	case "bitsliced":
		return falcon.BaseBitsliced, nil
	case "cdt":
		return falcon.BaseCDT, nil
	case "bytescan":
		return falcon.BaseByteScanCDT, nil
	case "linear":
		return falcon.BaseLinearCDT, nil
	case "convolve":
		return falcon.BaseConvolve, nil
	}
	return 0, fmt.Errorf("unknown -falcon-kind %q (want bitsliced, cdt, bytescan, linear or convolve)", s)
}

// parsePrefetch maps the -prefetch flag to server config: a bare depth
// ("4") or "sync" applies to every pool; "σ=depth" entries override per
// σ.  Entries combine: "-prefetch 8,6.15543=sync" runs σ=6.15543
// synchronously and everything else 8 deep.
func parsePrefetch(s string) (global int, bySigma map[string]int, err error) {
	parseDepth := func(v string) (int, error) {
		if v == "sync" {
			return -1, nil
		}
		d, err := strconv.Atoi(v)
		if err != nil || d < 0 {
			return 0, fmt.Errorf("-prefetch depth %q must be a non-negative integer or 'sync'", v)
		}
		if d == 0 {
			return -1, nil // 0 refills of lookahead = synchronous
		}
		return d, nil
	}
	for _, field := range splitList(s) {
		if sigma, v, ok := strings.Cut(field, "="); ok {
			d, err := parseDepth(v)
			if err != nil {
				return 0, nil, err
			}
			if bySigma == nil {
				bySigma = make(map[string]int)
			}
			bySigma[strings.TrimSpace(sigma)] = d
			continue
		}
		d, err := parseDepth(field)
		if err != nil {
			return 0, nil, err
		}
		global = d
	}
	return global, bySigma, nil
}

func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}
