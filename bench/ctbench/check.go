package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/big"
	"net/http"
	"sync"
	"sync/atomic"

	"ctgauss/internal/acceptance"
	"ctgauss/internal/bigfp"
	"ctgauss/internal/ctcheck"
	"ctgauss/internal/obs"
)

// Statistical gate of the in-run distribution check: the acceptance
// harness's chi-square significance and Rényi bound (docs/ACCEPTANCE.md).
const (
	gofAlpha    = 1e-6
	gofMaxRenyi = 1.05
	gofSamples  = 24576 // the acceptance grid's full per-cell draw
	gofMinimum  = 1024  // fewer collected samples fail the check
	refPrec     = 160   // bigfp reference precision in bits
)

// verifyGolden checks every pinned golden stream under the active SIMD
// backend, in a helper process, before anything is timed.
func verifyGolden(r *run) error {
	cmd, err := childCommand(r.ctx, "golden")
	if err != nil {
		return err
	}
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("golden check: %w", err)
	}
	var results []acceptance.GoldenResult
	if err := json.Unmarshal(out, &results); err != nil {
		return fmt.Errorf("golden check: %w", err)
	}
	r.check(len(results) > 0, "golden check verified no streams")
	for _, g := range results {
		r.check(g.Pass, "golden stream %s: %s", g.Name, g.Err)
	}
	return nil
}

// prefix collects the first gofSamples samples drawn for one (σ, μ), the
// input of the chi-square check against the bigfp reference.
type prefix struct {
	sigma, center float64
	full          atomic.Bool
	lock          sync.Mutex
	got           []int
}

func newPrefix(sigma, center float64) *prefix { return &prefix{sigma: sigma, center: center} }

func (p *prefix) add(xs []int) {
	if p.full.Load() {
		return
	}
	p.lock.Lock()
	defer p.lock.Unlock()
	n := min(len(xs), gofSamples-len(p.got))
	p.got = append(p.got, xs[:n]...)
	if len(p.got) == gofSamples {
		p.full.Store(true)
	}
}

// checkGOF runs the chi-square and Rényi gates on the collected prefix
// over the customary ±12σ reference window.
func checkGOF(r *run, label string, p *prefix) {
	p.lock.Lock()
	samples := p.got
	p.lock.Unlock()
	if !r.check(len(samples) >= gofMinimum, "%s: only %d samples collected for the distribution check", label, len(samples)) {
		return
	}
	lo := int(math.Floor(p.center - 12*p.sigma))
	hi := int(math.Ceil(p.center + 12*p.sigma))
	probs, _ := bigfp.PMF(new(big.Float).SetPrec(refPrec).SetFloat64(p.sigma),
		new(big.Float).SetPrec(refPrec).SetFloat64(p.center), int64(lo), int64(hi), refPrec)
	g := ctcheck.GOFAgainst(samples, lo, probs)
	r.check(g.Pass(gofAlpha, gofMaxRenyi), "%s: %d samples fail the reference fit (chi2=%.1f df=%d p=%.3g renyi2=%.4f)",
		label, g.N, g.Stat, g.DF, g.PValue, g.Renyi2)
}

// inSupport reports whether every sample lies within bound of center.
func inSupport(xs []int, center float64, bound float64) bool {
	for _, z := range xs {
		if math.Abs(float64(z)-center) > bound {
			return false
		}
	}
	return true
}

// countSamples counts the integers of a response's "samples" array with
// a byte scan — the cheap check applied to responses not fully decoded.
func countSamples(body []byte) int {
	const key = `"samples":[`
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return -1
	}
	arr := body[i+len(key):]
	j := bytes.IndexByte(arr, ']')
	if j < 0 {
		return -1
	}
	if j == 0 {
		return 0
	}
	return bytes.Count(arr[:j], []byte{','}) + 1
}

// reply is a fully read HTTP response.  body aliases the worker's buffer
// and is valid until its next request.
type reply struct {
	status int
	header http.Header
	body   []byte
	trace  string           // X-Ctgauss-Trace, when the daemon traces
	stages map[string]int64 // the X-Ctgauss-Stages trailer, when it does
}

// post sends one JSON request from worker w and reads the whole reply.
func (r *run) post(w *worker, url string, body []byte) (reply, error) {
	req, err := http.NewRequestWithContext(r.ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	return r.do(w, req)
}

func (r *run) do(w *worker, req *http.Request) (reply, error) {
	resp, err := r.client.Do(req)
	if err != nil {
		return reply{}, err
	}
	w.body.Reset()
	_, err = w.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return reply{}, err
	}
	rep := reply{status: resp.StatusCode, header: resp.Header, body: w.body.Bytes(), trace: resp.Header.Get(obs.TraceHeader)}
	if s := resp.Trailer.Get(obs.StagesHeader); s != "" {
		rep.stages = obs.ParseStages(s)
	}
	return rep, nil
}

// partitionOK reports whether a stage trailer's partition stages sum to
// its total within 1% (untraced replies carry no trailer and pass).
func partitionOK(stages map[string]int64) bool {
	if stages == nil {
		return true
	}
	var sum int64
	for s := obs.Stage(0); int(s) < obs.NumStages; s++ {
		if s.Partition() {
			sum += stages[s.String()]
		}
	}
	total := stages[obs.StageTotal.String()]
	return total > 0 && math.Abs(float64(sum-total)) <= 0.01*float64(total)
}
