package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"ctgauss"
)

func TestMain(m *testing.M) {
	// ctbench re-executes the running binary — this test binary under
	// go test — for its helper processes.
	if mode := os.Getenv(childEnv); mode != "" {
		runChild(mode)
		os.Exit(0)
	}
	os.Exit(m.Run())
}

type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchmarkJSON is the part of the root BENCHMARK.json the code must
// agree with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

func root(t *testing.T) string {
	t.Helper()
	dir, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

func units(specs []spec) map[string]string {
	out := map[string]string{}
	for _, s := range specs {
		out[s.name] = s.unit
	}
	return out
}

func TestSpecsMatchBenchmarkJSON(t *testing.T) {
	var bj benchmarkJSON
	readJSON(t, filepath.Join(root(t), "BENCHMARK.json"), &bj)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, ctbench runs %v", names, workloadNames())
	}
	for _, c := range []struct {
		label string
		file  []metricDef
		code  []spec
	}{{"end_to_end", bj.EndToEnd, endToEndSpecs()}, {"per_layer", bj.PerLayer, perLayerSpecs()}} {
		want := units(c.code)
		if len(c.file) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, ctbench emits %d", c.label, len(c.file), len(want))
		}
		for _, m := range c.file {
			if u, ok := want[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s: BENCHMARK.json has %s [%s], ctbench emits [%s] (present: %v)", c.label, m.Name, m.Unit, u, ok)
			}
		}
	}
}

// deterministicCounts computes the counts that depend only on the code
// and the seed, never on timing.
func deterministicCounts(t *testing.T, seed uint64) map[string]float64 {
	t.Helper()
	prngName, err := poolPRNG()
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for _, s := range sigmaSuffixes {
		sp, err := newSigmaProbe(s.suffix, s.sigma, prngName)
		if err != nil {
			t.Fatal(err)
		}
		out["prng.bytes_per_sample."+s.suffix] = sp.bytesPerSample()
		out["bitslice.word_ops_per_sample."+s.suffix] = sp.wordOpsPerSample()
		out["engine.samples_per_refill."+s.suffix] = float64(sp.pool.EngineStats().SamplesPerRefill)
		sp.pool.Close()
	}
	arb, err := ctgauss.NewArbitrary(ctgauss.ArbitraryConfig{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer arb.Close()
	plan, err := arb.Plan(hotSigma)
	if err != nil {
		t.Fatal(err)
	}
	out["convolve.base_draws_per_trial"] = float64(plan.Draws())
	distinct := map[float64]bool{hotSigma: true}
	for _, k := range arbitraryKeys(seed) {
		distinct[k.sigma] = true
	}
	out["http-arbitrary.distinct_sigmas"] = float64(len(distinct))
	return out
}

func TestDeterministicCounts(t *testing.T) {
	first, second := deterministicCounts(t, 1), deterministicCounts(t, 1)
	var baseline struct {
		Counts map[string]float64 `json:"counts"`
	}
	readJSON(t, filepath.Join(root(t), "bench", "baseline.json"), &baseline)
	for name, v := range first {
		if second[name] != v {
			t.Errorf("%s: %v then %v from the same seed", name, v, second[name])
		}
		if want, ok := baseline.Counts[name]; !ok || want != v {
			t.Errorf("%s = %v, bench/baseline.json records %v (present: %v)", name, v, want, ok)
		}
	}
	if len(baseline.Counts) != len(first) {
		t.Errorf("bench/baseline.json records %d counts, the code computes %d", len(baseline.Counts), len(first))
	}
}

// TestWorkloads runs every workload briefly, end to end and traced, and
// checks that each run is correct and emits every metric with its unit
// and a finite value.  -short keeps to the end-to-end runs.
func TestWorkloads(t *testing.T) {
	traces := []int{0, 1}
	if testing.Short() {
		traces = traces[:1]
	}
	for _, wl := range workloads() {
		for _, tr := range traces {
			t.Run(wl.name+map[int]string{0: "/end-to-end", 1: "/layers"}[tr], func(t *testing.T) {
				c := config{workload: wl.name, seed: 1, seconds: 0.2, trace: tr, workdir: t.TempDir(), root: root(t)}
				res, err := runWorkload(context.Background(), c, wl)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				specs := endToEndSpecs()
				if tr == 1 {
					specs = perLayerSpecs()
				}
				for _, s := range specs {
					m, ok := res.Metrics[s.name]
					if !ok || m.Unit != s.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("%s: %+v (present: %v), want unit %s and a finite value", s.name, m, ok, s.unit)
					}
				}
				if len(res.Metrics) != len(specs) {
					t.Errorf("emitted %d metrics, want %d", len(res.Metrics), len(specs))
				}
				if wl.name == "http-arbitrary" && tr == 1 {
					if got := res.Metrics["convolve.plans"].Value; got != arbKeys+1 {
						t.Errorf("convolve.plans = %v, want the %d spread keys plus the hot key", got, arbKeys)
					}
				}
			})
		}
	}
}
