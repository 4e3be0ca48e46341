package acceptance

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"

	"ctgauss"
	"ctgauss/internal/prng"
	"ctgauss/internal/sampler/gen"
	"ctgauss/internal/server"
	"ctgauss/internal/tier"
)

// GridOptions configures a grid sweep.  The zero value selects the full
// grid with the documented defaults.
type GridOptions struct {
	// Smoke selects the budgeted PR grid: fewer cells and fewer samples
	// per cell, same gates.  The full grid runs on main.
	Smoke bool
	// SamplesPerCell overrides the per-cell draw (default 24576 full,
	// 8192 smoke).
	SamplesPerCell int
	// Gates are the per-cell thresholds (zero value = defaults).
	Gates Gates
	// Prec is the bigfp reference precision in bits (default 160).
	Prec uint
	// PRNG selects the sampler backend (default prng.Serving(), the
	// generator the serving surfaces resolve to, so the grid sweeps what
	// is actually served).
	PRNG string
	// Workers bounds circuit-build parallelism (0 = all CPUs).
	Workers int
	// Logf, when set, receives one progress line per cell.
	Logf func(format string, args ...any)
}

func (o GridOptions) normalize() GridOptions {
	if o.SamplesPerCell == 0 {
		if o.Smoke {
			o.SamplesPerCell = 8192
		} else {
			o.SamplesPerCell = 24576
		}
	}
	o.Gates = o.Gates.normalize()
	if o.Prec == 0 {
		o.Prec = 160
	}
	if o.PRNG == "" {
		o.PRNG = prng.Serving()
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// compiledSigmas is the direct-compiled surface: the registry-served σ
// values (pregenerated native circuits) plus, on the full grid, interior
// points of the per-σ pipeline's range so the sweep is not limited to
// the two paper configurations.
func compiledSigmas(smoke bool) []string {
	if smoke {
		return gen.Sigmas()
	}
	out := []string{"1.5", "3", "4.5"}
	return append(out, gen.Sigmas()...)
}

// convolvedGrid is the (σ, μ) cell set of the convolution surface: σ
// spans the admissible range from just above convolve.DefaultMinSigma
// into the multi-level ladder regime, μ sits on grid-cell boundaries
// (0, the half-integer midpoint, and a negative quarter-fraction) — the
// centers where the constant-time randomized rounding does real work.
func convolvedGrid(smoke bool) (sigmas, mus []float64) {
	if smoke {
		return []float64{1.4142, 3.3, 17.5}, []float64{0, -2.625}
	}
	return []float64{1.1, 1.4142, 2.5, 3.3, 8, 17.5, 42.7, 100},
		[]float64{0, 0.5, -2.625}
}

// RunGrid sweeps the grid over all three serving surfaces and
// cross-validates every cell against the bigfp reference.
func RunGrid(opt GridOptions) (*GridReport, error) {
	opt = opt.normalize()
	rep := &GridReport{
		Gates:          opt.Gates,
		SamplesPerCell: opt.SamplesPerCell,
		RefPrecision:   opt.Prec,
	}
	if err := sweepCompiled(opt, rep); err != nil {
		return nil, err
	}
	if err := sweepConvolved(opt, rep); err != nil {
		return nil, err
	}
	if err := sweepPromoted(opt, rep); err != nil {
		return nil, err
	}
	if err := sweepHTTP(opt, rep); err != nil {
		return nil, err
	}
	rep.Pass = true
	for _, c := range rep.Cells {
		if !c.Pass {
			rep.Pass = false
		}
	}
	return rep, nil
}

func (o GridOptions) record(rep *GridReport, c CellResult) {
	rep.Cells = append(rep.Cells, c)
	verdict := "ok"
	if !c.Pass {
		verdict = "FAIL"
	}
	o.Logf("  %-9s %-16s σ=%-8g μ=%-7g p=%.4g R₂=%.5f bins=%d %s",
		c.Surface, c.Endpoint, c.Sigma, c.Mu, c.PValue, c.Renyi2, c.Bins, verdict)
}

// sweepCompiled draws each compiled-surface cell from a serving pool
// (engine runtime included), μ = 0 — the per-σ pipeline's contract.
func sweepCompiled(opt GridOptions, rep *GridReport) error {
	for _, sig := range compiledSigmas(opt.Smoke) {
		sf, err := strconv.ParseFloat(sig, 64)
		if err != nil {
			return fmt.Errorf("acceptance: compiled σ %q: %w", sig, err)
		}
		pool, err := ctgauss.NewPoolWithConfig(ctgauss.Config{
			Sigma:   sig,
			Seed:    deriveSeed("grid/compiled/" + sig),
			PRNG:    opt.PRNG,
			Workers: opt.Workers,
		}, 2)
		if err != nil {
			return fmt.Errorf("acceptance: building compiled σ=%s: %w", sig, err)
		}
		dst := make([]int, opt.SamplesPerCell)
		if err := pool.Take(nil, dst); err != nil {
			pool.Close()
			return fmt.Errorf("acceptance: drawing compiled σ=%s: %w", sig, err)
		}
		pool.Close()
		c := evalCell(dst, sf, 0, opt.Prec, opt.Gates)
		c.Surface = "compiled"
		opt.record(rep, c)
	}
	return nil
}

// sweepConvolved draws every convolved cell from one Arbitrary sampler
// over the default base set — the exact serving configuration.
func sweepConvolved(opt GridOptions, rep *GridReport) error {
	arb, err := ctgauss.NewArbitrary(ctgauss.ArbitraryConfig{
		Shards:  2,
		Seed:    deriveSeed("grid/convolved"),
		PRNG:    opt.PRNG,
		Workers: opt.Workers,
	})
	if err != nil {
		return fmt.Errorf("acceptance: building convolved surface: %w", err)
	}
	defer arb.Close()
	sigmas, mus := convolvedGrid(opt.Smoke)
	dst := make([]int, opt.SamplesPerCell)
	for _, sigma := range sigmas {
		for _, mu := range mus {
			c := CellResult{Surface: "convolved", Sigma: sigma, Mu: mu}
			if err := arb.NextBatch(sigma, mu, dst); err != nil {
				c.Err = err.Error()
			} else {
				c = evalCell(dst, sigma, mu, opt.Prec, opt.Gates)
				c.Surface = "convolved"
			}
			opt.record(rep, c)
		}
	}
	return nil
}

// promotedSigmas is the promoted-tier surface: free-form σ values a
// tier controller has promoted onto compiled pools.  They deliberately
// overlap the convolved grid, so the same key is gated on both the tier
// it starts on and the tier it is promoted to.
func promotedSigmas(smoke bool) []float64 {
	if smoke {
		return []float64{2.5}
	}
	return []float64{2.5, 3.3}
}

// sweepPromoted drives each promoted cell through a real tier
// controller — ForcePromote builds the compiled pool exactly as the
// daemon's background promotion would, and the draw goes through the
// refcounted Acquire path — so the gate covers the samples a client
// sees after a key's promotion, μ = 0 (the only center the compiled
// tier serves).
func sweepPromoted(opt GridOptions, rep *GridReport) error {
	ctrl, err := tier.New(tier.Config{
		// No ticker: the harness owns every transition.
		Tick: -1,
		Build: func(sigma string) (tier.Pool, error) {
			return ctgauss.NewPoolWithConfig(ctgauss.Config{
				Sigma:   sigma,
				Seed:    deriveSeed("grid/promoted/" + sigma),
				PRNG:    opt.PRNG,
				Workers: opt.Workers,
			}, 2)
		},
	})
	if err != nil {
		return fmt.Errorf("acceptance: tier controller: %w", err)
	}
	defer ctrl.Close()
	for _, sigma := range promotedSigmas(opt.Smoke) {
		if err := ctrl.ForcePromote(sigma); err != nil {
			return fmt.Errorf("acceptance: promoting σ=%g: %w", sigma, err)
		}
		pool, release, ok := ctrl.Acquire(sigma)
		if !ok {
			return fmt.Errorf("acceptance: σ=%g not acquirable after promotion", sigma)
		}
		dst := make([]int, opt.SamplesPerCell)
		err := pool.Take(nil, dst)
		release()
		if err != nil {
			return fmt.Errorf("acceptance: drawing promoted σ=%g: %w", sigma, err)
		}
		c := evalCell(dst, sigma, 0, opt.Prec, opt.Gates)
		c.Surface = "promoted"
		opt.record(rep, c)
	}
	return nil
}

// httpCell names one HTTP-surface cell.
type httpCell struct {
	endpoint string // "samples", "samples-freeform", "arbitrary"
	sigmaStr string // samples path: served or free-form σ spelling
	sigma    float64
	mu       float64
}

func httpCells(served []string, smoke bool) []httpCell {
	var cells []httpCell
	if smoke {
		cells = append(cells, httpCell{endpoint: "samples", sigmaStr: served[0], sigma: mustParse(served[0])})
		cells = append(cells, httpCell{endpoint: "arbitrary", sigma: 2.5, mu: 0.5})
		return cells
	}
	for _, s := range served {
		cells = append(cells, httpCell{endpoint: "samples", sigmaStr: s, sigma: mustParse(s)})
	}
	cells = append(cells, httpCell{endpoint: "samples-freeform", sigmaStr: "3.5", sigma: 3.5})
	cells = append(cells,
		httpCell{endpoint: "arbitrary", sigma: 2.5, mu: 0.5},
		httpCell{endpoint: "arbitrary", sigma: 12, mu: -1.25},
		httpCell{endpoint: "arbitrary", sigma: 64, mu: 0.125},
	)
	return cells
}

func mustParse(s string) float64 {
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		panic("acceptance: unparseable served σ " + s)
	}
	return f
}

// sweepHTTP mounts a ctgaussd serving layer under httptest and sweeps
// the served surface end to end: precompiled /v1/samples pools, the
// free-form σ fallback, and /v1/arbitrary — admission and JSON codecs
// included.
func sweepHTTP(opt GridOptions, rep *GridReport) error {
	srv, err := server.New(server.Config{
		Sigmas:          gen.Sigmas(),
		PoolShards:      2,
		ArbitraryShards: 2,
		Seed:            deriveSeed("grid/http"),
		PRNG:            opt.PRNG,
	})
	if err != nil {
		return fmt.Errorf("acceptance: building http surface: %w", err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Close()
	}()

	// The request size stays under the server's default MaxCount and
	// large enough to exercise multi-refill coalesced draws.
	const perReq = 4096
	for _, cell := range httpCells(srv.Sigmas(), opt.Smoke) {
		samples, err := drawHTTP(ts.Client(), ts.URL, cell, opt.SamplesPerCell, perReq)
		c := CellResult{Surface: "http", Endpoint: cell.endpoint, Sigma: cell.sigma, Mu: cell.mu}
		if err != nil {
			c.Err = err.Error()
		} else {
			c = evalCell(samples, cell.sigma, cell.mu, opt.Prec, opt.Gates)
			c.Surface = "http"
			c.Endpoint = cell.endpoint
		}
		opt.record(rep, c)
	}
	return nil
}

func drawHTTP(client *http.Client, base string, cell httpCell, total, perReq int) ([]int, error) {
	samples := make([]int, 0, total)
	for len(samples) < total {
		n := total - len(samples)
		if n > perReq {
			n = perReq
		}
		var (
			url  string
			body any
		)
		switch cell.endpoint {
		case "samples", "samples-freeform":
			url = base + "/v1/samples"
			body = map[string]any{"count": n, "sigma": cell.sigmaStr}
		case "arbitrary":
			url = base + "/v1/arbitrary"
			body = map[string]any{"count": n, "sigma": cell.sigma, "mu": cell.mu}
		default:
			return nil, fmt.Errorf("acceptance: unknown endpoint %q", cell.endpoint)
		}
		buf, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		resp, err := client.Post(url, "application/json", bytes.NewReader(buf))
		if err != nil {
			return nil, err
		}
		var out struct {
			Samples []int  `json:"samples"`
			Error   string `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("acceptance: %s: HTTP %d: %s", cell.endpoint, resp.StatusCode, out.Error)
		}
		if len(out.Samples) != n {
			return nil, fmt.Errorf("acceptance: %s: asked %d samples, got %d", cell.endpoint, n, len(out.Samples))
		}
		samples = append(samples, out.Samples...)
	}
	return samples, nil
}
