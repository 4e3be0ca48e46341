package registry

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"ctgauss/internal/bitslice"
	"ctgauss/internal/core"
	"ctgauss/internal/prng"
)

var testCfg = core.Config{Sigma: "2", N: 48, TailCut: 13, Min: core.MinimizeExact}

func drain(t *testing.T, a *Artifact, n int) []int {
	t.Helper()
	s := a.NewWideSampler(prng.MustChaCha20([]byte("reg-test")), bitslice.Width)
	out := make([]int, n)
	for i := range out {
		out[i] = s.Next()
	}
	return out
}

// TestMemHitSkipsRebuild is the acceptance-criteria test: a registry hit
// must return a ready sampler without re-running the minimization pipeline.
func TestMemHitSkipsRebuild(t *testing.T) {
	r := New("")
	a1, err := r.Get(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := r.Get(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Fatal("second Get returned a different artifact pointer")
	}
	st := r.Stats()
	if st.Builds != 1 || st.MemHits != 1 {
		t.Fatalf("stats = %+v, want 1 build and 1 memory hit", st)
	}
	if got := drain(t, a2, 64); len(got) != 64 {
		t.Fatal("cached artifact did not yield a working sampler")
	}
}

func TestDistinctKeysBuildSeparately(t *testing.T) {
	r := New("")
	if _, err := r.Get(testCfg); err != nil {
		t.Fatal(err)
	}
	other := testCfg
	other.Min = core.MinimizeGreedy
	if _, err := r.Get(other); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Builds != 2 {
		t.Fatalf("stats = %+v, want 2 builds for 2 keys", st)
	}
}

func TestWorkerCountDoesNotSplitKey(t *testing.T) {
	r := New("")
	a := testCfg
	a.Workers = 1
	b := testCfg
	b.Workers = 8
	if _, err := r.Get(a); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Get(b); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Builds != 1 {
		t.Fatalf("stats = %+v, want Workers excluded from the key", st)
	}
}

// TestDiskRoundTrip checks the O(load) repeat-build path: a second
// registry over the same directory must serve from disk, run zero builds,
// and produce a sampler bit-identical to the freshly built one.
func TestDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	r1 := New(dir)
	a1, err := r1.Get(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	if a1.FromDisk {
		t.Fatal("cold build marked FromDisk")
	}

	r2 := New(dir)
	a2, err := r2.Get(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !a2.FromDisk {
		t.Fatal("second process did not load from disk")
	}
	st := r2.Stats()
	if st.Builds != 0 || st.DiskHits != 1 {
		t.Fatalf("stats = %+v, want 0 builds and 1 disk hit", st)
	}
	if a2.Support != a1.Support || a2.Delta != a1.Delta ||
		a2.LeafCount != a1.LeafCount || a2.SublistCount != a1.SublistCount {
		t.Fatalf("stats diverged across serialization: %+v vs %+v", a2, a1)
	}
	want := drain(t, a1, 256)
	got := drain(t, a2, 256)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d: disk-loaded %d, built %d", i, got[i], want[i])
		}
	}
}

func TestCorruptCacheFallsBackToBuild(t *testing.T) {
	dir := t.TempDir()
	r1 := New(dir)
	if _, err := r1.Get(testCfg); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(files) != 1 {
		t.Fatalf("cache files: %v, %v", files, err)
	}

	// Truncated JSON must be ignored.
	if err := os.WriteFile(files[0], []byte(`{"Version":1,`), 0o644); err != nil {
		t.Fatal(err)
	}
	r2 := New(dir)
	if _, err := r2.Get(testCfg); err != nil {
		t.Fatal(err)
	}
	if st := r2.Stats(); st.Builds != 1 || st.DiskHits != 0 {
		t.Fatalf("stats after corrupt file = %+v, want a rebuild", st)
	}

	// Valid JSON with an out-of-range register must fail Validate.
	data, err := os.ReadFile(files[0]) // freshly rewritten by r2
	if err != nil {
		t.Fatal(err)
	}
	var da diskArtifact
	if err := json.Unmarshal(data, &da); err != nil {
		t.Fatal(err)
	}
	da.Program.Outputs[0] = da.Program.NumRegs + 7
	bad, err := json.Marshal(da)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(files[0], bad, 0o644); err != nil {
		t.Fatal(err)
	}
	r3 := New(dir)
	if _, err := r3.Get(testCfg); err != nil {
		t.Fatal(err)
	}
	if st := r3.Stats(); st.Builds != 1 || st.DiskHits != 0 {
		t.Fatalf("stats after invalid program = %+v, want a rebuild", st)
	}
}

// TestSingleflight floods one cold key from many goroutines: all must get
// the same artifact and the pipeline must run exactly once.
func TestSingleflight(t *testing.T) {
	r := New("")
	const goroutines = 32
	arts := make([]*Artifact, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for i := 0; i < goroutines; i++ {
		go func(i int) {
			defer wg.Done()
			a, err := r.Get(testCfg)
			if err != nil {
				t.Error(err)
				return
			}
			arts[i] = a
		}(i)
	}
	wg.Wait()
	for i := 1; i < goroutines; i++ {
		if arts[i] != arts[0] {
			t.Fatal("goroutines observed different artifacts")
		}
	}
	st := r.Stats()
	if st.Builds != 1 {
		t.Fatalf("stats = %+v, want exactly 1 build under contention", st)
	}
	// Waiters on the in-flight cold build are part of the miss, not
	// memory hits; only requests after resolution may count as hits.
	if st.Builds+st.MemHits+st.DiskHits > goroutines {
		t.Fatalf("stats = %+v, counters exceed request count", st)
	}
	if _, err := r.Get(testCfg); err != nil {
		t.Fatal(err)
	}
	if after := r.Stats(); after.MemHits != st.MemHits+1 {
		t.Fatalf("stats = %+v, want a memory hit once resolved", after)
	}
}

func TestBadConfigNotPoisoned(t *testing.T) {
	r := New("")
	bad := core.Config{Sigma: "nope", N: 48, TailCut: 13}
	if _, err := r.Get(bad); err == nil {
		t.Fatal("expected error for invalid σ")
	}
	// The failed entry must not shadow a later (still failing) retry or
	// block a valid key.
	if _, err := r.Get(bad); err == nil {
		t.Fatal("expected error on retry")
	}
	if _, err := r.Get(testCfg); err != nil {
		t.Fatal(err)
	}
}

func TestSharedRegistryIsSingleton(t *testing.T) {
	if Shared() != Shared() {
		t.Fatal("Shared returned different registries")
	}
}

var testSetCfgs = []core.Config{
	{Sigma: "2", N: 48, TailCut: 13, Min: core.MinimizeExact},
	{Sigma: "3", N: 48, TailCut: 13, Min: core.MinimizeExact},
}

// TestGetSetSeedsMembers: resolving a set must make later member-wise
// Gets memory hits — the pool layers resolve per σ, and the convolution
// layer must not cause duplicate builds alongside them.
func TestGetSetSeedsMembers(t *testing.T) {
	r := New("")
	set, err := r.GetSet(testSetCfgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 2 || set[0].FromDisk || set[1].FromDisk {
		t.Fatalf("set = %+v, want 2 freshly built members", set)
	}
	if st := r.Stats(); st.Builds != 2 {
		t.Fatalf("stats = %+v, want one build per member", st)
	}
	for i, cfg := range testSetCfgs {
		a, err := r.Get(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if a != set[i] {
			t.Fatalf("member %d: Get returned a different artifact than the set", i)
		}
	}
	if st := r.Stats(); st.Builds != 2 || st.MemHits != 2 {
		t.Fatalf("stats = %+v, want member Gets to be memory hits", st)
	}
	// The same set again resolves to the same artifacts.
	set2, err := r.GetSet(testSetCfgs)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(set2, set) {
		t.Fatal("second GetSet returned different artifacts")
	}
}

// TestGetSetSingleflight: racing set resolutions share one build per
// member and see the same artifacts.
func TestGetSetSingleflight(t *testing.T) {
	r := New("")
	const goroutines = 16
	sets := make([][]*Artifact, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for i := 0; i < goroutines; i++ {
		go func(i int) {
			defer wg.Done()
			s, err := r.GetSet(testSetCfgs)
			if err != nil {
				t.Error(err)
				return
			}
			sets[i] = s
		}(i)
	}
	wg.Wait()
	for i := 1; i < goroutines; i++ {
		if !slices.Equal(sets[i], sets[0]) {
			t.Fatalf("goroutine %d observed different artifacts", i)
		}
	}
	if st := r.Stats(); st.Builds != 2 {
		t.Fatalf("stats = %+v, want one build per member under contention", st)
	}
}

func TestGetSetEmptyAndBadMember(t *testing.T) {
	r := New("")
	if _, err := r.GetSet(nil); err == nil {
		t.Fatal("empty set must error")
	}
	bad := []core.Config{{Sigma: "nope", N: 48, TailCut: 13}}
	if _, err := r.GetSet(bad); err == nil {
		t.Fatal("bad member must error")
	}
	// Failure must not poison the set key.
	if _, err := r.GetSet(bad); err == nil {
		t.Fatal("expected error on retry")
	}
	if _, err := r.GetSet(testSetCfgs); err != nil {
		t.Fatal(err)
	}
}
