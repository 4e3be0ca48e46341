// Command ctbench is the repository benchmark: four workloads over the
// constant-time sampler, from the in-process pool to the ctgaussd HTTP
// daemon, each reporting end-to-end metrics from an untraced run and
// per-layer metrics (PRNG → bitslice → sampler → engine → convolve →
// tier → server → falcon → registry) from a separate traced run.
//
// Usage (from the repository root):
//
//	bash bench/run.sh --seed 1                            # every workload, both runs
//	bash bench/run.sh --workload pool --seed 1 --trace 0  # one workload, end to end
//	cd bench && go run ./ctbench -seed 1 -workload http-falcon -trace 1
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics (name → value and unit).  The command
// exits non-zero when any output check fails.  bench/README.md documents
// the workloads, phases and metrics.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"

	"ctgauss/internal/acceptance"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	jsonPath string
	workdir  string
	root     string // repository checkout (holds the ctgauss go.mod)
}

// measured is the length of the measured phase of an end-to-end run.
func (c config) measured() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// traced is the length of a trace run's traced phase: half the run's
// seconds, the rest going to the served twin and the layer probes.
func (c config) traced() time.Duration { return c.measured() / 2 }

// warmup is the warm-up length: a third of the measured phase, capped at
// 3s — enough for the daemon's refill rings, connection pool and
// allocator to reach steady state on this workload set.
func (c config) warmup() time.Duration { return min(c.measured()/3, 3*time.Second) }

// setupRuns is how many cold starts setup_s takes the median of.  Each
// takes up to 0.8s (Falcon-512 keygen) of a run's time, which is better
// spent on a longer measured phase.
const setupRuns = 3

func main() {
	var c config
	flag.StringVar(&c.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+" (empty = all, each in a fresh process)")
	flag.Uint64Var(&c.seed, "seed", 1, "workload seed: drives the generated inputs (request mix, σ list, messages, arrival times) only")
	flag.Float64Var(&c.seconds, "seconds", 28, "seconds of measurement: the measured phase of trace 0, the traced phase plus probes of trace 1")
	flag.IntVar(&c.trace, "trace", -1, "0 = end-to-end metrics from an untraced run, 1 = per-layer metrics from a traced run, -1 = both")
	flag.StringVar(&c.jsonPath, "json", "", "also write the result object to this file")
	flag.StringVar(&c.workdir, "workdir", ".bench_build", "directory for built binaries, daemon caches, logs and span files")
	flag.Parse()

	if mode := os.Getenv(childEnv); mode != "" {
		runChild(mode)
		return
	}
	if c.seconds <= 0 {
		fatal(errors.New("-seconds must be positive"))
	}
	if c.trace < -1 || c.trace > 1 {
		fatal(errors.New("-trace must be 0, 1 or -1"))
	}
	root, err := repoRoot()
	if err != nil {
		fatal(err)
	}
	c.root = root
	if c.workdir, err = filepath.Abs(c.workdir); err != nil {
		fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	if c.workload == "" || c.trace == -1 {
		os.Exit(runChildren(ctx, c))
	}
	wl, ok := workloadByName(c.workload)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q (want %s)", c.workload, strings.Join(workloadNames(), ", ")))
	}
	res, err := runWorkload(ctx, c, wl)
	if err != nil {
		fatal(err)
	}
	if !emit(c, res) {
		os.Exit(1)
	}
}

// childEnv makes a ctbench process a helper of the run that started it:
// "pool-setup" cold-starts the pool workload's pools and prints ready
// (setup_s of the pool workload is timed over fresh processes, like a
// daemon cold start); "golden" verifies the pinned golden streams and
// prints the verdicts as JSON, keeping that work out of the parent,
// whose own peak RSS is the pool workload's rss_peak_mb.
const childEnv = "CTBENCH_CHILD"

func runChild(mode string) {
	switch mode {
	case "pool-setup":
		poolSetupChild()
	case "golden":
		root, err := repoRoot()
		if err != nil {
			fatal(err)
		}
		results, err := acceptance.VerifyGolden(filepath.Join(root, "internal", "acceptance", "testdata", "golden.json"))
		if err != nil {
			fatal(err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(results); err != nil {
			fatal(err)
		}
	default:
		fatal(fmt.Errorf("unknown %s mode %q", childEnv, mode))
	}
}

// childCommand prepares a helper process of this binary in mode.
func childCommand(ctx context.Context, mode string) (*exec.Cmd, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, self)
	cmd.Env = append(envWithout("CTGAUSS_CACHE_DIR", childEnv), childEnv+"="+mode)
	cmd.Stderr = os.Stderr
	return cmd, nil
}

// runChildren runs each requested (workload, trace) pair in a fresh
// process of this binary, passes their output through, and prints one
// combined JSON line.  It returns the exit code.
func runChildren(ctx context.Context, c config) int {
	names := workloadNames()
	if c.workload != "" {
		names = []string{c.workload}
	}
	traces := []int{0, 1}
	if c.trace >= 0 {
		traces = []int{c.trace}
	}
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	combined := struct {
		Correct   bool               `json:"correct"`
		Attempted int64              `json:"attempted"`
		Failed    int64              `json:"failed"`
		Runs      map[string]*result `json:"runs"`
	}{Correct: true, Runs: map[string]*result{}}
	code := 0
	for _, name := range names {
		for _, tr := range traces {
			args := []string{"-workload", name, "-seed", fmt.Sprint(c.seed), "-seconds", fmt.Sprint(c.seconds),
				"-trace", fmt.Sprint(tr), "-workdir", c.workdir}
			cmd := exec.CommandContext(ctx, self, args...)
			cmd.Stderr = os.Stderr
			out, err := cmd.StdoutPipe()
			if err != nil {
				fatal(err)
			}
			if err := cmd.Start(); err != nil {
				fatal(err)
			}
			var last string
			sc := bufio.NewScanner(out)
			for sc.Scan() {
				last = sc.Text()
				fmt.Println(last)
			}
			werr := cmd.Wait()
			key := fmt.Sprintf("%s/trace%d", name, tr)
			var res result
			if err := json.Unmarshal([]byte(last), &res); err != nil {
				fmt.Fprintf(os.Stderr, "ctbench: %s produced no result (%v)\n", key, werr)
				combined.Correct = false
				code = 1
				continue
			}
			combined.Runs[key] = &res
			combined.Correct = combined.Correct && res.Correct
			combined.Attempted += res.Attempted
			combined.Failed += res.Failed
			if werr != nil {
				code = 1
			}
		}
	}
	line, err := json.Marshal(combined)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if c.jsonPath != "" {
		if err := os.WriteFile(c.jsonPath, append(line, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
	return code
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of a single run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// emit prints every metric by name and unit, then the result line, and
// reports whether the run was correct.
func emit(c config, res *result) bool {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("# %s seed=%d trace=%d seconds=%g\n", c.workload, c.seed, c.trace, c.seconds)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("%-40s %14.6g %s\n", n, m.Value, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	if c.jsonPath != "" {
		if err := os.WriteFile(c.jsonPath, append(line, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
	fmt.Println(string(line))
	return res.Correct
}

// run is one (workload, trace) execution in progress.
type run struct {
	config
	ctx       context.Context
	epoch     time.Time
	daemonBin string
	client    *http.Client
	values    map[string]float64
	attempted int64
	failed    int64
	spans     []span
}

func (r *run) set(name string, v float64) { r.values[name] = v }

// check counts one correctness check and reports a failed one.
func (r *run) check(ok bool, format string, args ...any) bool {
	r.attempted++
	if !ok {
		r.failed++
		fmt.Fprintf(os.Stderr, "ctbench: %s: check failed: %s\n", r.workload, fmt.Sprintf(format, args...))
	}
	return ok
}

// account adds a finished load phase's operations to the run's totals.
func (r *run) account(p *phaseResult) {
	r.attempted += int64(len(p.samples))
	r.failed += p.failed
	r.spans = append(r.spans, p.spans...)
}

// runWorkload performs one (workload, trace) run and assembles its
// result: every end-to-end metric for trace 0, every per-layer metric
// for trace 1.
func runWorkload(ctx context.Context, c config, wl *workloadDef) (*result, error) {
	r := &run{
		config: c,
		ctx:    ctx,
		epoch:  time.Now(),
		values: map[string]float64{},
		client: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     clients,
				MaxIdleConnsPerHost: clients,
				DisableCompression:  true,
			},
		},
	}
	defer r.client.CloseIdleConnections()
	if err := os.MkdirAll(filepath.Join(c.workdir, "tmp"), 0o755); err != nil {
		return nil, err
	}
	bin, err := buildDaemon(ctx, c.root, c.workdir)
	if err != nil {
		return nil, err
	}
	r.daemonBin = bin
	if err := verifyGolden(r); err != nil {
		return nil, err
	}
	if c.trace == 0 {
		err = wl.endToEnd(r)
	} else {
		err = wl.layers(r)
		if err == nil {
			err = runLayerProbes(r)
		}
		if err == nil {
			err = writeSpans(filepath.Join(c.workdir, "spans", fmt.Sprintf("%s-seed%d.jsonl", c.workload, c.seed)), r.spans)
		}
	}
	if err != nil {
		return nil, err
	}

	specs := endToEndSpecs()
	if c.trace == 1 {
		specs = perLayerSpecs()
	}
	res := &result{Metrics: map[string]metricValue{}}
	for _, s := range specs {
		v, ok := r.values[s.name]
		if r.check(ok && finite(v), "metric %s missing or not finite (%v)", s.name, v) {
			res.Metrics[s.name] = metricValue{Value: v, Unit: s.unit}
		}
	}
	res.Attempted, res.Failed = r.attempted, r.failed
	res.Correct = r.failed == 0
	return res, nil
}

// repoRoot walks up from the working directory to the checkout holding
// the ctgauss module.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && slices.Contains(strings.Split(string(data), "\n"), "module ctgauss") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no ctgauss checkout above the working directory (ctbench runs inside the repository)")
		}
		dir = parent
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ctbench:", err)
	os.Exit(2)
}
