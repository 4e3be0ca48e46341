package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// clients is the load's concurrency: every workload drives the system
// from at most this many goroutines, each holding at most one request or
// Take in flight (the benchmark box has two CPUs).
const clients = 2

// sample is one completed operation of a load phase.  It is kept small
// because the pool workload records its samples inside the serving
// process, whose peak RSS is an end-to-end metric.
type sample struct {
	lat    float32 // ms from send (closed loop) or due time (open loop) to completion
	lag    float32 // ms the send was late through the generator's own fault
	class  uint8   // classLight or classHeavy
	target uint8   // which of the phase's targets served it
	window uint16  // the phase window it completed in (see windowLen)
}

// windowLen is the length of the windows a phase is cut into: 1s, or a
// tenth of a shorter phase.  End-to-end throughput and latencies are
// medians over the measured phase's windows, so a burst of load from
// other guests on the host that covers less than half of a run leaves
// them unmoved.
func windowLen(dur time.Duration) time.Duration { return min(time.Second, dur/10) }

// Every workload splits its operations into two request classes whose
// median latencies are reported separately (heavy_p50_ms end to end,
// loadgen.light_p50_ms per layer).
const (
	classLight uint8 = iota
	classHeavy
)

// span is one timed call the benchmark made into a layer.  Spans of one
// request share Request (the daemon's X-Ctgauss-Trace ID, when traced).
type span struct {
	Name    string           `json:"name"`
	Start   int64            `json:"start_ns"` // since the run started
	End     int64            `json:"end_ns"`
	Parent  string           `json:"parent,omitempty"`
	Request string           `json:"request_id,omitempty"`
	Stages  map[string]int64 `json:"stages_ns,omitempty"` // the daemon's stage trailer
}

// worker is one load goroutine's private state, merged after the phase.
type worker struct {
	body    bytes.Buffer
	ints    []int // Take destination of the pool workload
	samples []sample
	spans   []span
	failed  int64
}

// outcome is what one operation reports back to the load generator.
type outcome struct {
	class   uint8
	ok      bool             // the call succeeded and its output checked out
	name    string           // span name of the call
	request string           // the daemon's trace ID, when traced
	stages  map[string]int64 // the daemon's stage trailer, when traced
}

// opFunc performs operation i of a phase against one of its targets.
type opFunc func(w *worker, i int, target int) outcome

// phase describes one load phase.
type phase struct {
	name string // parent span of the phase's traced calls
	dur  time.Duration
	// arrivals, when set, makes the phase an open loop: operation i is
	// due at start+arrivals[i], whether or not earlier ones are done.
	arrivals []time.Duration
	// alternate splits the operations between targets 0 and 1 (a trace
	// run's traced and untraced sides) in sliceLen turns of ABBA order,
	// so drift cancels out of their comparison.
	alternate bool
	// traced records a span for every operation sent to target 0.
	traced bool
}

// targetAt is the target of an operation starting off into the phase.
// Phases shorter than four turns (smoke tests) shorten the turns.
func (p phase) targetAt(off time.Duration) int {
	if !p.alternate {
		return 0
	}
	k := int(off / min(sliceLen, p.dur/4))
	if (k/2)%2 == 1 {
		return 1 - k%2
	}
	return k % 2
}

// phaseResult is a finished phase's merged record.
type phaseResult struct {
	next    int           // first operation index the phase did not use
	elapsed time.Duration // start to the last completion
	window  time.Duration // windowLen of the phase
	windows int           // whole windows in the phase; later ones hold only stragglers
	samples []sample
	spans   []span
	failed  int64
}

// runPhase drives op from the load goroutines for p.dur.  first is the
// index of the phase's first operation, so consecutive phases walk one
// seeded operation sequence.  Spans are stamped relative to epoch.
func runPhase(p phase, first int, epoch time.Time, op opFunc) *phaseResult {
	var next atomic.Int64
	next.Store(int64(first))
	start := time.Now()
	workers := make([]*worker, clients)
	var wg sync.WaitGroup
	var lastEnd atomic.Int64
	win := windowLen(p.dur)
	for c := range workers {
		w := &worker{}
		workers[c] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			if p.arrivals != nil {
				runtime.LockOSThread()
				defer runtime.UnlockOSThread()
				preciseSleepThread()
			}
			ready := time.Now()
			for {
				i := int(next.Add(1) - 1)
				var due time.Time
				if p.arrivals != nil {
					k := i - first
					if k >= len(p.arrivals) || p.arrivals[k] >= p.dur {
						return
					}
					due = start.Add(p.arrivals[k])
					sleepUntil(due)
				} else if time.Since(start) >= p.dur {
					return
				}
				t0 := time.Now()
				from, lagFrom := t0, ready
				if p.arrivals != nil {
					from = due
					if due.After(ready) {
						lagFrom = due
					}
				}
				target := p.targetAt(from.Sub(start))
				out := op(w, i, target)
				end := time.Now()
				if !out.ok {
					w.failed++
				}
				w.samples = append(w.samples, sample{
					lat: float32(ms(end.Sub(from))), lag: float32(ms(t0.Sub(lagFrom))), class: out.class, target: uint8(target),
					window: uint16(min(end.Sub(start)/win, math.MaxUint16)),
				})
				if p.traced && target == 0 {
					w.spans = append(w.spans, span{
						Name: out.name, Start: int64(t0.Sub(epoch)), End: int64(end.Sub(epoch)),
						Parent: p.name, Request: out.request, Stages: out.stages,
					})
				}
				for e := int64(end.Sub(start)); ; {
					old := lastEnd.Load()
					if e <= old || lastEnd.CompareAndSwap(old, e) {
						break
					}
				}
				ready = end
			}
		}()
	}
	wg.Wait()
	res := &phaseResult{next: int(next.Load()), elapsed: time.Duration(lastEnd.Load()), window: win, windows: int(p.dur / win)}
	for _, w := range workers {
		res.samples = append(res.samples, w.samples...)
		res.spans = append(res.spans, w.spans...)
		res.failed += w.failed
	}
	if len(res.spans) > 0 {
		res.spans = append(res.spans, span{Name: p.name, Start: int64(start.Sub(epoch)), End: int64(start.Add(res.elapsed).Sub(epoch))})
	}
	return res
}

// latencies returns the sorted latencies (ms) of the samples keep selects.
func (r *phaseResult) latencies(keep func(sample) bool) []float64 {
	var out []float64
	for _, s := range r.samples {
		if keep(s) {
			out = append(out, f64(s.lat))
		}
	}
	slices.Sort(out)
	return out
}

func all(sample) bool { return true }

// byWindow returns, for each whole window of the phase, the sorted
// latencies (ms) of the samples keep selects.
func (r *phaseResult) byWindow(keep func(sample) bool) [][]float64 {
	out := make([][]float64, r.windows)
	for _, s := range r.samples {
		if int(s.window) < r.windows && keep(s) {
			out[s.window] = append(out[s.window], f64(s.lat))
		}
	}
	for _, l := range out {
		slices.Sort(l)
	}
	return out
}

// windowRate is the median over the phase's whole windows of the
// operations completed per second.
func (r *phaseResult) windowRate() float64 {
	var per []float64
	for _, l := range r.byWindow(all) {
		per = append(per, float64(len(l))/r.window.Seconds())
	}
	return median(per)
}

// windowQuantile is the median over the phase's whole windows of each
// window's q-quantile latency (ms) of the samples keep selects.  Windows
// without such samples are skipped.
func (r *phaseResult) windowQuantile(keep func(sample) bool, q float64) float64 {
	var per []float64
	for _, l := range r.byWindow(keep) {
		if len(l) > 0 {
			per = append(per, quantile(l, q))
		}
	}
	return median(per)
}

// f64 widens a recorded float32 to the float64 with the same shortest
// decimal, so reported values carry no binary widening noise.
func f64(x float32) float64 {
	v, _ := strconv.ParseFloat(strconv.FormatFloat(float64(x), 'g', -1, 32), 64)
	return v
}

// lags returns the sorted lags (ms) of the generator's own sends.
func (r *phaseResult) lags() []float64 {
	lags := make([]float64, len(r.samples))
	for i, s := range r.samples {
		lags[i] = f64(s.lag)
	}
	slices.Sort(lags)
	return lags
}

// An open loop is only as honest as its send times.  time.Sleep wakes
// through the runtime's netpoller, whose idle wait has millisecond
// granularity (about 0.6ms late at the median on the benchmark box), so
// open-loop workers lock their OS thread, drop its timer slack to 1µs
// and sleep with nanosleep(2) instead (tens of µs late).
func preciseSleepThread() {
	const prSetTimerSlack = 29
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1000, 0)
}

func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil)
	}
}

// poissonArrivals returns seeded exponential inter-arrival offsets at
// rate per second covering dur.
func poissonArrivals(seed uint64, rate float64, dur time.Duration) []time.Duration {
	rng := rand.New(rand.NewPCG(seed, 0x6172726976616c73))
	var out []time.Duration
	var t float64
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * 1e9)
		if d >= dur {
			return out
		}
		out = append(out, d)
	}
}

// pick is the seeded choice stream: a well-mixed 64-bit value for
// operation i of stream s, so a request's content depends only on the
// workload seed and its index, never on which goroutine sends it.
func pick(seed uint64, s uint64, i int) uint64 {
	x := seed ^ s*0x9e3779b97f4a7c15 ^ uint64(i)*0xbf58476d1ce4e5b9
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// unit maps a pick value to [0, 1).
func unit(x uint64) float64 { return float64(x>>11) / (1 << 53) }

// writeSpans writes spans as JSON lines to path.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// finite reports whether v is a usable metric value.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
