// Package dispatch selects the SIMD backend the bitslice evaluator runs
// on.  Detection happens once at init: the CPU's vector extensions are
// probed (hand-rolled CPUID/XGETBV on amd64 — the module is dependency-
// free by policy), the CTGAUSS_SIMD environment override is applied, and
// the winner is published through an atomic so evaluation reads it with
// one load.  There are two backends: the AVX2 kernel wherever the CPU
// and OS support it, and the pure-Go interpreter, always available as
// the portable fallback.  Both evaluate at the same width
// (bitslice.Width) and produce bit-identical output — the backend
// changes who executes the instruction stream, never what it computes,
// so a stream depends on its seed alone on every host.
//
// The same selection picks internal/prng's ChaCha20 block function:
// under AVX2 it fills eight blocks at a time with an AVX2 kernel, under
// Portable it runs the pure-Go block.  The keystream is the same either
// way.
//
// Override values (CTGAUSS_SIMD): "off"/"portable" force the pure-Go
// path, "avx2" requests the kernel.  Requesting a backend the CPU (or
// OS) does not support, or any other value, falls back to the best
// available one rather than failing: a fleet-wide env var must not
// brick replicas on older hardware.  Info records both the request and
// the outcome so /healthz can surface a mismatch.
package dispatch

import (
	"fmt"
	"os"
	"strings"
	"sync/atomic"
)

// Backend identifies an evaluation kernel set.
type Backend int32

// Backends, in preference order (higher is preferred when available).
const (
	// Portable is the pure-Go wide interpreter — always available.
	Portable Backend = iota
	// AVX2 executes the op stream with 256-bit VPAND-class instructions,
	// four ymm registers per 16-word slot.
	AVX2
)

// String returns the backend's stable name (the override spelling).
func (b Backend) String() string {
	switch b {
	case Portable:
		return "portable"
	case AVX2:
		return "avx2"
	}
	return fmt.Sprintf("backend(%d)", int32(b))
}

// active is the selected backend, read per evaluation via one atomic
// load.  Tests flip it with Force; production selects once at init.
var active atomic.Int32

// detected is the immutable set of backends this CPU+OS supports,
// filled at init (Portable is implicit and always first).
var detected []Backend

// override records the CTGAUSS_SIMD value seen at init ("" when unset).
var override string

// overrideErr records an override that could not be honored (unknown
// value or unavailable backend), for Info to surface.
var overrideErr string

func init() {
	detected = probe()
	override = strings.ToLower(strings.TrimSpace(os.Getenv("CTGAUSS_SIMD")))
	b, errmsg := choose(override, detected)
	overrideErr = errmsg
	active.Store(int32(b))
}

// choose resolves an override spelling against the detected backend set.
// It never fails: an unknown or unavailable request degrades to the best
// available backend with an explanatory message, because a fleet-wide
// env var must not brick replicas on older hardware.
func choose(override string, detected []Backend) (Backend, string) {
	best := Portable
	for _, d := range detected {
		if d > best {
			best = d
		}
	}
	switch override {
	case "":
		return best, ""
	case "off", "portable", "none":
		return Portable, ""
	case "avx2":
		if best == AVX2 {
			return AVX2, ""
		}
		return best, fmt.Sprintf("CTGAUSS_SIMD=%s unavailable on this CPU, using %s", override, best)
	default:
		return best, fmt.Sprintf("unknown CTGAUSS_SIMD=%q, using %s", override, best)
	}
}

// probe is implemented per-arch (cpu_amd64.go / cpu_other.go); it
// returns the SIMD backends the CPU and OS support, best last.
// Portable is never included — it is implicit.

// available reports whether b has kernel support on this CPU.
func available(b Backend) bool {
	if b == Portable {
		return true
	}
	for _, d := range detected {
		if d == b {
			return true
		}
	}
	return false
}

// Active returns the backend evaluation currently dispatches to.
func Active() Backend { return Backend(active.Load()) }

// Detected returns the SIMD backends this CPU supports (excluding the
// always-available portable fallback), in ascending preference order.
// The caller must not modify the returned slice.
func Detected() []Backend { return detected }

// Force switches the active backend, returning a function that restores
// the previous selection.  It fails if b is not available on this CPU.
// Intended for tests (cross-backend identity sweeps) and tools; serving
// processes select once at init via CTGAUSS_SIMD.
func Force(b Backend) (restore func(), err error) {
	if !available(b) {
		return nil, fmt.Errorf("dispatch: backend %s not available on this CPU (have %s)", b, strings.Join(Names(), ","))
	}
	prev := active.Swap(int32(b))
	return func() { active.Store(prev) }, nil
}

// Names returns the name of every available backend including portable.
func Names() []string {
	names := []string{Portable.String()}
	for _, d := range detected {
		names = append(names, d.String())
	}
	return names
}

// Info is the introspection snapshot the serving layer reports.
type Info struct {
	// Backend is the active backend's name ("portable", "avx2", ...).
	Backend string `json:"backend"`
	// Available lists every backend this CPU supports, portable first.
	Available []string `json:"available"`
	// Override echoes CTGAUSS_SIMD when set.
	Override string `json:"override,omitempty"`
	// OverrideError explains an override that could not be honored.
	OverrideError string `json:"override_error,omitempty"`
}

// Snapshot returns the current dispatch state for introspection
// (-version, /healthz, the build_info metric).
func Snapshot() Info {
	return Info{
		Backend:       Active().String(),
		Available:     Names(),
		Override:      override,
		OverrideError: overrideErr,
	}
}
