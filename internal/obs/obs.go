// Package obs is the serving stack's zero-dependency observability
// layer: per-request traces with stage timings, per-(stage, endpoint)
// latency histograms for /metrics, a sampled structured slow-request
// log (log/slog), build-info stamping, the pprof/runtime-trace debug
// handler, and a Prometheus text-format linter.
//
// The contract that lets the hooks live on the hot path: when no
// Observer with tracing enabled exists, every instrumentation site
// reduces to one atomic load (TraceEnabled) and allocates nothing.
// When tracing is on, a request carries a *Trace through its context;
// the deep layers (engine take/refill, convolve combine/round) add
// durations to it with plain stores — a Trace is only ever touched by
// the goroutine serving its request.  Hooks read clocks and nothing
// else: they never consume randomness, so golden streams stay
// bit-identical with tracing on or off.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"log/slog"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Stage identifies one timed segment of a request's life.  The stages
// up to and including StageOther partition the request: their sum
// equals StageTotal (StageOther is derived as the unattributed
// remainder).  StageEngineWait, StageEval, and StageCombine are
// sub-stages nested inside StageCoalesce and are excluded from the
// partition sum.
type Stage uint8

const (
	// StageQueueWait is admission: the drain gate plus acquiring a
	// bounded-queue slot (acquisition is non-blocking, so this is
	// normally nanoseconds; it also covers refused/rejected requests'
	// whole life).
	StageQueueWait Stage = iota
	// StageDecode is request-body parsing.
	StageDecode
	// StageRoute is the tier route decision (compiled-pool acquire).
	StageRoute
	// StageCoalesce is the draw itself: pool take, arbitrary-sampler
	// batch, or Falcon signing — everything between a decoded request
	// and samples in hand.
	StageCoalesce
	// StageEncode is response serialization and the socket write.
	StageEncode
	// StageOther is the unattributed remainder (handler bookkeeping,
	// validation, allocation); derived at finish, never recorded
	// directly.
	StageOther
	// StageEngineWait is time blocked inside the refill engine waiting
	// for a producer (a prefetch miss).  Sub-stage of StageCoalesce.
	StageEngineWait
	// StageEval is inline circuit evaluation when prefetch is disabled
	// (depth 0).  Sub-stage of StageCoalesce.
	StageEval
	// StageCombine is the convolve ladder's combine/round lane
	// evaluation.  Sub-stage of StageCoalesce.
	StageCombine
	// StageTotal is the request's full wall time, queue wait included.
	StageTotal

	// NumStages is the number of distinct stages.
	NumStages = int(StageTotal) + 1
)

var stageNames = [NumStages]string{
	"queue_wait", "decode", "route", "coalesce", "encode",
	"other", "engine_wait", "eval", "combine", "total",
}

func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// Partition reports whether s is one of the disjoint stages whose sum
// equals StageTotal.
func (s Stage) Partition() bool { return s <= StageOther }

// HTTP header names the server uses to surface traces.
const (
	// TraceHeader carries the request's trace ID on every traced
	// response.
	TraceHeader = "X-Ctgauss-Trace"
	// StagesHeader is the response trailer carrying the stage
	// breakdown, formatted by Trace.EncodeStages.
	StagesHeader = "X-Ctgauss-Stages"
)

// tracingObservers counts live Observers with tracing enabled.  The
// instrumentation gate: sites check TraceEnabled before touching the
// request context, so a disabled process pays one atomic load per
// hook.
var tracingObservers atomic.Int64

// TraceEnabled reports whether any live Observer is tracing.  This is
// the single atomic check every hook performs when observability is
// off.
func TraceEnabled() bool { return tracingObservers.Load() > 0 }

// Trace accumulates one request's stage timings.  All methods are
// nil-safe so call sites stay unconditional; a Trace must only be
// mutated by the goroutine serving its request.
type Trace struct {
	id     string
	o      *Observer
	ep     int
	tier   string
	stages [NumStages]int64 // nanoseconds
}

// ID returns the request's trace ID ("" for a nil trace).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Endpoint returns the endpoint name the trace was started for.
func (t *Trace) Endpoint() string {
	if t == nil {
		return ""
	}
	return t.o.endpoints[t.ep]
}

// Add accumulates d into stage s.  Nil-safe; non-positive durations
// are dropped.
func (t *Trace) Add(s Stage, d time.Duration) {
	if t == nil || d <= 0 {
		return
	}
	t.stages[s] += int64(d)
}

// Now returns the current time for a live trace and the zero Time for
// a nil one — pair with End so untraced requests never read the clock:
//
//	t0 := tr.Now()
//	... work ...
//	tr.End(obs.StageCoalesce, t0)
func (t *Trace) Now() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// End accumulates the time elapsed since t0 into stage s.  No-op on a
// nil trace.
func (t *Trace) End(s Stage, t0 time.Time) {
	if t == nil {
		return
	}
	t.stages[s] += int64(time.Since(t0))
}

// SetTier records which serving tier satisfied the request
// ("compiled" or "convolved").  Nil-safe.
func (t *Trace) SetTier(tier string) {
	if t == nil {
		return
	}
	t.tier = tier
}

// Tier returns the tier recorded by SetTier ("" if none).
func (t *Trace) Tier() string {
	if t == nil {
		return ""
	}
	return t.tier
}

// Stage returns the accumulated duration of stage s.
func (t *Trace) Stage(s Stage) time.Duration {
	if t == nil {
		return 0
	}
	return time.Duration(t.stages[s])
}

// EncodeStages renders the nonzero stages as "name=ns;name=ns" for
// the X-Ctgauss-Stages response trailer.  Call after Observer.Finish
// so the derived other/total stages are included.
func (t *Trace) EncodeStages() string {
	if t == nil {
		return ""
	}
	var b strings.Builder
	for s := 0; s < NumStages; s++ {
		if t.stages[s] == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(';')
		}
		b.WriteString(stageNames[s])
		b.WriteByte('=')
		b.WriteString(strconv.FormatInt(t.stages[s], 10))
	}
	return b.String()
}

// ParseStages decodes an EncodeStages string into stage-name →
// nanoseconds.  Unknown names are kept (forward compatibility);
// malformed pairs are skipped.
func ParseStages(s string) map[string]int64 {
	if s == "" {
		return nil
	}
	out := make(map[string]int64)
	for _, pair := range strings.Split(s, ";") {
		name, val, ok := strings.Cut(pair, "=")
		if !ok {
			continue
		}
		ns, err := strconv.ParseInt(val, 10, 64)
		if err != nil || ns < 0 {
			continue
		}
		out[name] = ns
	}
	return out
}

type ctxKey struct{}

// ContextWith returns ctx carrying t.
func ContextWith(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, ctxKey{}, t)
}

// FromContext returns the trace ctx carries, nil when absent (or when
// ctx itself is nil).  Gate calls with TraceEnabled so untraced
// processes skip the context walk entirely.
func FromContext(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}

// DefaultSlowLogMinInterval is the slow-request log's sampling floor:
// at most one record per this interval, so an overloaded daemon logs
// evidence, not a flood.
const DefaultSlowLogMinInterval = 100 * time.Millisecond

// Config configures an Observer.
type Config struct {
	// Trace enables request tracing: trace IDs, stage histograms, the
	// stages response trailer.
	Trace bool
	// SlowRequest, when > 0, emits a structured log record for every
	// request whose total time meets it, at most one per
	// DefaultSlowLogMinInterval.  Implies Trace.
	SlowRequest time.Duration
	// Logger receives slow-request records.  nil = slog.Default().
	Logger *slog.Logger
}

// Observer owns a process's tracing state: trace-ID generation, the
// per-(endpoint, stage) histograms /metrics scrapes, and the sampled
// slow-request log.  Create one per server with the endpoint-name
// universe; Close it when the server closes so the global gate
// releases.
type Observer struct {
	cfg       Config
	endpoints []string
	idPrefix  string
	idCtr     atomic.Uint64
	hists     []Histogram // len(endpoints) × NumStages, row-major by endpoint
	slowLast  atomic.Int64
	enabled   bool
	closed    atomic.Bool
}

// New creates an Observer for the given endpoint names.  When neither
// tracing nor slow-request logging is requested the Observer is
// disabled: Start returns nil and the global gate stays off.
func New(cfg Config, endpoints []string) *Observer {
	if cfg.SlowRequest > 0 {
		cfg.Trace = true
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	o := &Observer{cfg: cfg, endpoints: endpoints, enabled: cfg.Trace}
	if !o.enabled {
		return o
	}
	var pfx [8]byte
	if _, err := rand.Read(pfx[:]); err != nil {
		// Fall back to the clock; uniqueness within the process still
		// holds via the counter.
		now := time.Now().UnixNano()
		for i := range pfx {
			pfx[i] = byte(now >> (8 * i))
		}
	}
	o.idPrefix = hex.EncodeToString(pfx[:])
	o.hists = make([]Histogram, len(endpoints)*NumStages)
	tracingObservers.Add(1)
	return o
}

// Enabled reports whether the Observer traces requests.
func (o *Observer) Enabled() bool { return o != nil && o.enabled }

// Close releases the Observer's claim on the global tracing gate.
// Idempotent.
func (o *Observer) Close() {
	if o == nil || !o.enabled {
		return
	}
	if o.closed.CompareAndSwap(false, true) {
		tracingObservers.Add(-1)
	}
}

// Start begins a trace for a request on endpoint (an index into the
// endpoint names passed to New).  Returns nil when the Observer is
// disabled — all Trace methods tolerate that.
func (o *Observer) Start(endpoint int) *Trace {
	if o == nil || !o.enabled || o.closed.Load() {
		return nil
	}
	return &Trace{
		id: fmt.Sprintf("%s-%08x", o.idPrefix, o.idCtr.Add(1)),
		o:  o,
		ep: endpoint,
	}
}

// Finish completes a trace: derives the unattributed remainder and the
// total, folds every stage into the scrape histograms, and emits a
// slow-request record when configured.  No-op for a nil trace.
func (o *Observer) Finish(t *Trace, status int, total time.Duration) {
	if t == nil || o == nil || !o.enabled {
		return
	}
	var part int64
	for s := StageQueueWait; s < StageOther; s++ {
		part += t.stages[s]
	}
	if other := int64(total) - part; other > 0 {
		t.stages[StageOther] = other
	}
	t.stages[StageTotal] = int64(total)
	base := t.ep * NumStages
	for s := 0; s < NumStages; s++ {
		if t.stages[s] > 0 || s == int(StageTotal) {
			o.hists[base+s].Observe(t.stages[s])
		}
	}
	if o.cfg.SlowRequest > 0 && total >= o.cfg.SlowRequest && o.admitSlowLog() {
		o.logSlow(t, status, total)
	}
}

// admitSlowLog applies the sampling floor: at most one slow-request
// record per DefaultSlowLogMinInterval, decided with a CAS so
// concurrent slow requests elect exactly one logger.  The first slow
// request is always admitted.
func (o *Observer) admitSlowLog() bool {
	now := time.Now().UnixNano()
	last := o.slowLast.Load()
	return now-last >= int64(DefaultSlowLogMinInterval) && o.slowLast.CompareAndSwap(last, now)
}

func (o *Observer) logSlow(t *Trace, status int, total time.Duration) {
	attrs := make([]slog.Attr, 0, 6+NumStages)
	attrs = append(attrs,
		slog.String("trace", t.id),
		slog.String("endpoint", o.endpoints[t.ep]),
		slog.Int("status", status),
		slog.Float64("total_ms", float64(total)/1e6),
	)
	if t.tier != "" {
		attrs = append(attrs, slog.String("tier", t.tier))
	}
	stageAttrs := make([]any, 0, NumStages)
	for s := 0; s < int(StageTotal); s++ {
		if t.stages[s] > 0 {
			stageAttrs = append(stageAttrs,
				slog.Float64(stageNames[s], float64(t.stages[s])/1e6))
		}
	}
	attrs = append(attrs, slog.Group("stages_ms", stageAttrs...))
	o.cfg.Logger.LogAttrs(context.Background(), slog.LevelWarn, "slow request", attrs...)
}

// StageScrape is one (endpoint, stage) histogram snapshot for the
// /metrics exporter.
type StageScrape struct {
	Endpoint string
	Stage    string
	Hist     HistogramSnapshot
}

// Scrape snapshots every non-empty (endpoint, stage) histogram in a
// deterministic order: endpoints in registration order, stages in enum
// order.  Empty (and nil-Observer) scrapes return nil.
func (o *Observer) Scrape() []StageScrape {
	if o == nil || !o.enabled {
		return nil
	}
	var out []StageScrape
	for e, name := range o.endpoints {
		for s := 0; s < NumStages; s++ {
			snap := o.hists[e*NumStages+s].Snapshot()
			if snap.Count == 0 {
				continue
			}
			out = append(out, StageScrape{Endpoint: name, Stage: stageNames[s], Hist: snap})
		}
	}
	return out
}

// StageSum returns the summed nanoseconds observed for one (endpoint
// index, stage) histogram — the reconciliation tests' hook.
func (o *Observer) StageSum(endpoint int, s Stage) uint64 {
	if o == nil || !o.enabled {
		return 0
	}
	return o.hists[endpoint*NumStages+int(s)].Snapshot().SumNs
}
