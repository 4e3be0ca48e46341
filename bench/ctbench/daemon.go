package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildDaemon compiles cmd/ctgaussd from the repository checkout into
// workdir/bin.  The go command runs from the bench module, whose replace
// directive points at the checkout, so the daemon under test is always
// the code next to the benchmark.
func buildDaemon(ctx context.Context, root, workdir string) (string, error) {
	bin := filepath.Join(workdir, "bin", "ctgaussd")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "ctgauss/cmd/ctgaussd")
	cmd.Dir = filepath.Join(root, "bench")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building ctgaussd: %v\n%s", err, out)
	}
	return bin, nil
}

// daemon is one running ctgaussd child process.
type daemon struct {
	cmd   *exec.Cmd
	url   string
	dir   string // private -cache directory, removed on stop
	log   *os.File
	setup time.Duration // exec to the first 200 on /healthz

	waitDone chan struct{} // closed once the process has been reaped
	stopOnce sync.Once
}

// startDaemon execs bin with args plus a loopback address and a fresh,
// empty circuit cache, and waits until /healthz answers 200.
func startDaemon(ctx context.Context, bin, workdir, name string, args []string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(filepath.Join(workdir, "tmp"), "cache-")
	if err != nil {
		return nil, err
	}
	logPath := filepath.Join(workdir, "logs", name+".log")
	if err := os.MkdirAll(filepath.Dir(logPath), 0o755); err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	full := append([]string{"-addr", addr, "-cache", dir}, args...)
	cmd := exec.Command(bin, full...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.Env = envWithout("CTGAUSS_CACHE_DIR")
	// The daemon dies with the benchmark even if the benchmark is killed
	// before it can stop it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d := &daemon{cmd: cmd, url: "http://" + addr, dir: dir, log: logf}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		os.RemoveAll(dir)
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	exited := make(chan struct{})
	go func() {
		cmd.Wait()
		close(exited)
	}()
	d.waitDone = exited
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := client.Get(d.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.setup = time.Since(start)
				return d, nil
			}
		}
		select {
		case <-exited:
			d.stop()
			return nil, fmt.Errorf("%s exited before becoming healthy (log: %s)", name, logPath)
		case <-ctx.Done():
			d.stop()
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("%s not healthy after 60s (log: %s)", name, logPath)
		}
	}
}

// stop sends SIGTERM (the daemon drains and exits), escalates to SIGKILL
// after 10s, waits for the process to end, and removes its cache.
func (d *daemon) stop() {
	if d == nil {
		return
	}
	d.stopOnce.Do(func() {
		d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.waitDone:
		case <-time.After(10 * time.Second):
			d.cmd.Process.Kill()
			<-d.waitDone
		}
		d.log.Close()
		os.RemoveAll(d.dir)
	})
}

// peakRSSMB reads VmHWM (peak resident set) of pid from /proc, in MB.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid > 0 {
		path = "/proc/" + strconv.Itoa(pid) + "/status"
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in " + path)
}

// scrape fetches /metrics and returns every sample keyed by its series
// (metric name plus label set exactly as exposed).
func scrape(client *http.Client, url string) (map[string]float64, error) {
	resp, err := client.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// envWithout returns the process environment minus the named variables.
func envWithout(names ...string) []string {
	var env []string
	for _, kv := range os.Environ() {
		k, _, _ := strings.Cut(kv, "=")
		drop := false
		for _, n := range names {
			drop = drop || k == n
		}
		if !drop {
			env = append(env, kv)
		}
	}
	return env
}
