package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestDisabledHooksAllocateNothing pins the hot-path contract: with no
// tracing Observer live, an instrumentation site — the gate check, the
// (skipped) context lookup, a disabled Observer's Start/Finish, and
// every nil-safe Trace method — performs zero allocations.
func TestDisabledHooksAllocateNothing(t *testing.T) {
	if TraceEnabled() {
		t.Fatal("tracing gate unexpectedly on at test start")
	}
	o := New(Config{}, []string{"samples"})
	if o.Enabled() {
		t.Fatal("zero-config Observer should be disabled")
	}
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		var tr *Trace
		if TraceEnabled() {
			tr = FromContext(ctx)
		}
		tr = o.Start(0)
		t0 := tr.Now()
		tr.Add(StageEngineWait, time.Nanosecond)
		tr.End(StageCoalesce, t0)
		tr.SetTier("compiled")
		o.Finish(tr, 200, time.Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("disabled observability allocated %v times per request, want 0", allocs)
	}
}

// TestGateTracksObserverLifetime: the global gate turns on with the
// first tracing Observer and off when the last closes.
func TestGateTracksObserverLifetime(t *testing.T) {
	if TraceEnabled() {
		t.Fatal("gate on before any Observer")
	}
	a := New(Config{Trace: true}, []string{"ep"})
	b := New(Config{Trace: true}, []string{"ep"})
	if !TraceEnabled() {
		t.Fatal("gate off with two tracing Observers live")
	}
	a.Close()
	a.Close() // idempotent
	if !TraceEnabled() {
		t.Fatal("gate off while one Observer still live")
	}
	b.Close()
	if TraceEnabled() {
		t.Fatal("gate still on after all Observers closed")
	}
}

func TestTraceIDsUnique(t *testing.T) {
	o := New(Config{Trace: true}, []string{"ep"})
	defer o.Close()
	const n = 10_000
	seen := make(map[string]bool, n)
	for i := 0; i < n; i++ {
		id := o.Start(0).ID()
		if id == "" {
			t.Fatal("empty trace ID from enabled Observer")
		}
		if seen[id] {
			t.Fatalf("duplicate trace ID %s", id)
		}
		seen[id] = true
	}
}

func TestStagesEncodeRoundTrip(t *testing.T) {
	o := New(Config{Trace: true}, []string{"ep"})
	defer o.Close()
	tr := o.Start(0)
	tr.Add(StageDecode, 1500*time.Nanosecond)
	tr.Add(StageCoalesce, 2*time.Millisecond)
	tr.Add(StageEngineWait, time.Millisecond)
	o.Finish(tr, 200, 3*time.Millisecond)
	got := ParseStages(tr.EncodeStages())
	if got["decode"] != 1500 {
		t.Fatalf("decode = %d, want 1500", got["decode"])
	}
	if got["coalesce"] != int64(2*time.Millisecond) {
		t.Fatalf("coalesce = %d", got["coalesce"])
	}
	if got["engine_wait"] != int64(time.Millisecond) {
		t.Fatalf("engine_wait = %d", got["engine_wait"])
	}
	if got["total"] != int64(3*time.Millisecond) {
		t.Fatalf("total = %d", got["total"])
	}
	// other = total − (decode + coalesce); engine_wait is a sub-stage
	// and must not affect the partition remainder.
	wantOther := int64(3*time.Millisecond) - 1500 - int64(2*time.Millisecond)
	if got["other"] != wantOther {
		t.Fatalf("other = %d, want %d", got["other"], wantOther)
	}
}

// TestStageSumsReconcileUnderConcurrentLoad drives many goroutines
// through Start/Add/Finish and checks the scrape-side invariant the
// loadgen integration test relies on: summed partition stages equal
// summed totals exactly (the Observer derives "other" per request).
func TestStageSumsReconcileUnderConcurrentLoad(t *testing.T) {
	o := New(Config{Trace: true}, []string{"samples", "arbitrary"})
	defer o.Close()
	const (
		workers = 8
		perW    = 500
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				ep := (w + i) % 2
				tr := o.Start(ep)
				tr.Add(StageQueueWait, time.Duration(1+i%7)*time.Microsecond)
				tr.Add(StageDecode, time.Duration(2+i%5)*time.Microsecond)
				tr.Add(StageCoalesce, time.Duration(10+i%11)*time.Microsecond)
				tr.Add(StageEncode, time.Duration(3+i%3)*time.Microsecond)
				total := tr.Stage(StageQueueWait) + tr.Stage(StageDecode) +
					tr.Stage(StageCoalesce) + tr.Stage(StageEncode) +
					time.Duration(i%2)*time.Microsecond // unattributed slack
				o.Finish(tr, 200, total)
			}
		}(w)
	}
	wg.Wait()
	for ep := 0; ep < 2; ep++ {
		var part uint64
		for s := StageQueueWait; s <= StageOther; s++ {
			part += o.StageSum(ep, s)
		}
		tot := o.StageSum(ep, StageTotal)
		if part != tot {
			t.Fatalf("endpoint %d: partition stage sum %d ≠ total sum %d", ep, part, tot)
		}
	}
	var reqs uint64
	for _, sc := range o.Scrape() {
		if sc.Stage == "total" {
			reqs += sc.Hist.Count
		}
	}
	if reqs != workers*perW {
		t.Fatalf("total histograms counted %d requests, want %d", reqs, workers*perW)
	}
}

func TestSlowLogEmissionAndSampling(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	logger := slog.New(slog.NewJSONHandler(lockedWriter{&mu, &buf}, nil))
	o := New(Config{
		SlowRequest: time.Microsecond,
		Logger:      logger,
	}, []string{"samples"})
	defer o.Close()

	tr := o.Start(0)
	tr.Add(StageCoalesce, 40*time.Microsecond)
	tr.SetTier("compiled")
	o.Finish(tr, 200, 50*time.Microsecond)

	fast := o.Start(0)
	o.Finish(fast, 200, 100*time.Nanosecond) // under threshold: no record

	mu.Lock()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	mu.Unlock()
	if len(lines) != 1 || lines[0] == "" {
		t.Fatalf("want exactly 1 slow-request record, got %d: %q", len(lines), buf.String())
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("slow-request record is not JSON: %v", err)
	}
	if rec["msg"] != "slow request" {
		t.Fatalf("msg = %v", rec["msg"])
	}
	if rec["trace"] != tr.ID() {
		t.Fatalf("trace = %v, want %s", rec["trace"], tr.ID())
	}
	if rec["tier"] != "compiled" {
		t.Fatalf("tier = %v", rec["tier"])
	}
	stages, ok := rec["stages_ms"].(map[string]any)
	if !ok || stages["coalesce"] == nil {
		t.Fatalf("stages_ms missing coalesce: %v", rec["stages_ms"])
	}

	// A burst of slow requests, far shorter than the sampling floor,
	// yields exactly one more record.
	mu.Lock()
	buf.Reset()
	mu.Unlock()
	o2 := New(Config{
		SlowRequest: time.Microsecond,
		Logger:      logger,
	}, []string{"samples"})
	defer o2.Close()
	for i := 0; i < 50; i++ {
		tr := o2.Start(0)
		o2.Finish(tr, 200, time.Millisecond)
	}
	mu.Lock()
	n := strings.Count(strings.TrimSpace(buf.String()), "\n") + 1
	empty := strings.TrimSpace(buf.String()) == ""
	mu.Unlock()
	if empty || n != 1 {
		t.Fatalf("sampled slow log emitted %d records in a burst, want 1", n)
	}
}

type lockedWriter struct {
	mu *sync.Mutex
	w  *bytes.Buffer
}

func (l lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

func TestContextRoundTrip(t *testing.T) {
	if got := FromContext(nil); got != nil {
		t.Fatal("FromContext(nil) != nil")
	}
	if got := FromContext(context.Background()); got != nil {
		t.Fatal("FromContext(empty) != nil")
	}
	o := New(Config{Trace: true}, []string{"ep"})
	defer o.Close()
	tr := o.Start(0)
	ctx := ContextWith(context.Background(), tr)
	if got := FromContext(ctx); got != tr {
		t.Fatal("trace lost through context")
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	h.Observe(1)
	h.Observe(1000)    // 2^10 = 1024 → bucket 10
	h.Observe(1 << 40) // saturates at the top bucket
	h.Observe(-5)      // clamps to bucket 0, no sum contribution
	s := h.Snapshot()
	if s.Count != 4 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.SumNs != 1+1000+(1<<40) {
		t.Fatalf("sum = %d", s.SumNs)
	}
	if s.Buckets[0] != 2 {
		t.Fatalf("bucket 0 = %d, want 2", s.Buckets[0])
	}
	if s.Buckets[10] != 1 {
		t.Fatalf("bucket 10 = %d, want 1", s.Buckets[10])
	}
	if s.Buckets[NumBuckets-1] != 1 {
		t.Fatalf("top bucket = %d, want 1", s.Buckets[NumBuckets-1])
	}
}

func TestHistogramQuantile(t *testing.T) {
	var empty Histogram
	if q := empty.Snapshot().Quantile(0.5); q != 0 {
		t.Fatalf("empty snapshot quantile = %d, want 0", q)
	}

	var pow Histogram
	pow.Observe(1 << 20) // an exact power of two is its own bucket's bound
	if q := pow.Snapshot().Quantile(0.5); q != 1<<20 {
		t.Fatalf("quantile of 2^20 = %d, want %d", q, 1<<20)
	}

	var top Histogram
	top.Observe(1 << 50) // past the last bound: saturates
	if q, want := top.Snapshot().Quantile(1), BucketUpperNs(NumBuckets-1); q != want {
		t.Fatalf("saturated quantile = %d, want %d", q, want)
	}

	// i²·37 ns for i = 1..1000.  The wants (16.777216 ms and 67.108864 ms)
	// are the quantiles ctgaussd_latency_seconds reported for these
	// observations before it was rendered from this type.
	var h Histogram
	for i := int64(1); i <= 1000; i++ {
		h.Observe(i * i * 37)
	}
	s := h.Snapshot()
	for _, c := range []struct {
		q    float64
		want uint64
	}{{0.5, 16777216}, {0.99, 67108864}} {
		if got := s.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%g) = %d ns, want %d", c.q, got, c.want)
		}
	}
}

func TestBuildInfo(t *testing.T) {
	b := Build()
	if b.Version == "" {
		t.Fatal("empty version")
	}
	if !strings.HasPrefix(b.GoVersion, "go") {
		t.Fatalf("go_version = %q", b.GoVersion)
	}
}

func TestStagePartition(t *testing.T) {
	want := map[Stage]bool{
		StageQueueWait: true, StageDecode: true, StageRoute: true,
		StageCoalesce: true, StageEncode: true, StageOther: true,
		StageEngineWait: false, StageEval: false, StageCombine: false,
		StageTotal: false,
	}
	for s, w := range want {
		if s.Partition() != w {
			t.Fatalf("%s.Partition() = %v, want %v", s, s.Partition(), w)
		}
	}
	names := map[string]bool{}
	for s := 0; s < NumStages; s++ {
		n := Stage(s).String()
		if n == "unknown" || names[n] {
			t.Fatalf("stage %d has bad or duplicate name %q", s, n)
		}
		names[n] = true
	}
}
