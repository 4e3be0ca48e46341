// Package registry implements the build-once/serve-many layer of the
// pipeline: a process-wide memoization of compiled sampler circuits keyed
// by (σ, precision, τ, minimizer), with an optional on-disk JSON cache of
// the compiled bitslice.Program so repeated processes pay O(load) instead
// of re-running the exact Quine–McCluskey minimization.
//
// Concurrency follows the singleflight discipline: the first goroutine to
// request a key builds it while later requesters block on the same entry,
// so an N-goroutine cold start runs exactly one minimization per key.
//
// Consumers: ctgauss.Pool (and through it the internal/server HTTP
// layer) resolves its circuit here, and the convolution layer
// (internal/convolve) resolves its base set member by member through
// GetSet, so every pool, base set and daemon in a process shares one
// build per configuration.  The disk cache holds one file per circuit;
// ctgaussd's -cache flag is this package's CTGAUSS_CACHE_DIR.
package registry

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"ctgauss/internal/bitslice"
	"ctgauss/internal/core"
	"ctgauss/internal/prng"
	"ctgauss/internal/sampler"
)

// diskFormatVersion guards the cache-file layout; bump it whenever the
// serialized artefact shape changes so stale files rebuild instead of
// mis-loading.
const diskFormatVersion = 1

// Key identifies a compiled sampler circuit.  Build-time knobs that do not
// change the artefact (worker count) are deliberately excluded.
type Key struct {
	Sigma   string
	N       int
	TailCut float64
	Min     core.Minimizer
}

// KeyFor derives the cache key of a build configuration.
func KeyFor(cfg core.Config) Key {
	return Key{Sigma: cfg.Sigma, N: cfg.N, TailCut: cfg.TailCut, Min: cfg.Min}
}

func (k Key) String() string {
	return fmt.Sprintf("σ=%s n=%d τ=%g min=%v", k.Sigma, k.N, k.TailCut, k.Min)
}

// Artifact is the serve-side residue of a build: the compiled constant-time
// program plus the scalar statistics tools report.  It carries everything a
// sampler needs and nothing the build pipeline used to get there, which is
// what makes it small enough to serialize.
type Artifact struct {
	Key          Key
	Program      *bitslice.Program
	Support      int // max magnitude ⌈τσ⌉
	Delta        int // payload window Δ
	LeafCount    int // DDG-tree leaves (|L|)
	SublistCount int // non-empty l_κ
	// FromDisk reports whether this artefact was loaded from the on-disk
	// cache rather than built in this process.
	FromDisk bool

	optOnce sync.Once
	opt     *bitslice.Optimized
}

// Optimized returns the register-allocated evaluation form of the
// circuit, compiled at most once per artifact and shared by every sampler
// instantiated from it — the serve-side analogue of the build-once
// discipline the registry applies to the circuit itself.
func (a *Artifact) Optimized() *bitslice.Optimized {
	a.optOnce.Do(func() { a.opt = bitslice.Optimize(a.Program) })
	return a.opt
}

// NewWideSampler instantiates an independent width-w constant-time
// sampler (w×64 lanes per circuit evaluation) over the cached optimized
// circuit.  Instances share the immutable optimized program but own
// their PRNG state, so each is as cheap as a few slice allocations.
func (a *Artifact) NewWideSampler(src prng.Source, w int) *sampler.Bitsliced {
	return sampler.NewBitslicedWidth(fmt.Sprintf("bitsliced-wide%d(%s)", w, a.Key.Sigma), a.Optimized(), src, w)
}

func artifactOf(key Key, b *core.Built) *Artifact {
	return &Artifact{
		Key:          key,
		Program:      b.Program,
		Support:      b.Table.Support,
		Delta:        b.Tree.Delta,
		LeafCount:    b.LeafCount,
		SublistCount: b.SublistCount,
	}
}

// Stats counts how Get requests were satisfied.
type Stats struct {
	Builds   uint64 // full pipeline runs (cold misses)
	MemHits  uint64 // satisfied by the in-memory map
	DiskHits uint64 // satisfied by the on-disk cache
}

// Registry memoizes compiled sampler circuits.  The zero value is not
// usable; construct with New.
type Registry struct {
	dir string // on-disk cache directory; "" = memory only

	mu      sync.Mutex
	entries map[Key]*entry

	builds   atomic.Uint64
	memHits  atomic.Uint64
	diskHits atomic.Uint64
}

// entry is a singleflight slot: ready closes once art/err are final.
type entry struct {
	ready chan struct{}
	art   *Artifact
	err   error
}

// New creates a registry.  dir is the on-disk cache directory ("" disables
// disk caching); it is created on first write.  dir must be private to
// trusted users: cache files are only structurally validated on load, so
// anyone who can write there can substitute a biased sampler circuit.
func New(dir string) *Registry {
	return &Registry{dir: dir, entries: make(map[Key]*entry)}
}

// shared is the process-wide registry behind Shared.
var (
	sharedOnce sync.Once
	shared     *Registry
)

// Shared returns the process-wide registry.  Its disk cache directory
// comes from the CTGAUSS_CACHE_DIR environment variable (unset = memory
// only), read once on first use.
func Shared() *Registry {
	sharedOnce.Do(func() { shared = New(os.Getenv("CTGAUSS_CACHE_DIR")) })
	return shared
}

// Get returns the artifact for cfg, building it at most once per process
// no matter how many goroutines ask.  Resolution order: in-memory map,
// then on-disk cache, then a full core.Build (whose result is written
// through to disk when a cache directory is configured).
func (r *Registry) Get(cfg core.Config) (*Artifact, error) {
	key := KeyFor(cfg)
	r.mu.Lock()
	if e, ok := r.entries[key]; ok {
		r.mu.Unlock()
		// Only a request that found the artifact already resolved is a
		// memory hit; waiters piling onto an in-flight cold build are
		// part of that build's miss.
		select {
		case <-e.ready:
			if e.err == nil {
				r.memHits.Add(1)
			}
		default:
			<-e.ready
		}
		return e.art, e.err
	}
	e := &entry{ready: make(chan struct{})}
	r.entries[key] = e
	r.mu.Unlock()

	e.art, e.err = r.load(key, cfg)
	if e.err != nil {
		// Drop failed entries so transient failures (e.g. an unreadable
		// cache dir racing a rebuild) do not poison the key forever;
		// deterministic config errors simply fail again on retry.
		r.mu.Lock()
		delete(r.entries, key)
		r.mu.Unlock()
	}
	close(e.ready)
	return e.art, e.err
}

// Stats returns a snapshot of the hit/miss counters.
func (r *Registry) Stats() Stats {
	return Stats{
		Builds:   r.builds.Load(),
		MemHits:  r.memHits.Load(),
		DiskHits: r.diskHits.Load(),
	}
}

// GetSet resolves every cfg through Get, concurrently, and returns the
// artifacts in request order.  Each member is one registry entry and,
// under a cache directory, one cache file, so a set shares its builds
// with per-σ Gets (e.g. a ctgauss.Pool over one member) in either
// order.
func (r *Registry) GetSet(cfgs []core.Config) ([]*Artifact, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("registry: empty base set")
	}
	arts := make([]*Artifact, len(cfgs))
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	for i := range cfgs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			arts[i], errs[i] = r.Get(cfgs[i])
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return arts, nil
}

// diskArtifact is the JSON cache-file layout.
type diskArtifact struct {
	Version      int
	Key          Key
	Support      int
	Delta        int
	LeafCount    int
	SublistCount int
	Program      *bitslice.Program
}

// path returns the cache file for key: a content-addressed name so every
// distinct key gets its own file and no character of σ needs escaping.
func (r *Registry) path(key Key) string {
	kj, _ := json.Marshal(key)
	sum := sha256.Sum256(kj)
	return filepath.Join(r.dir, "ctgauss-"+hex.EncodeToString(sum[:8])+".json")
}

func (r *Registry) load(key Key, cfg core.Config) (*Artifact, error) {
	if r.dir != "" {
		if art := r.loadDisk(key); art != nil {
			r.diskHits.Add(1)
			return art, nil
		}
	}
	built, err := core.Build(cfg)
	if err != nil {
		return nil, err
	}
	r.builds.Add(1)
	art := artifactOf(key, built)
	if r.dir != "" {
		// Best effort: a failed write (read-only dir, full disk) degrades
		// to memory-only caching rather than failing the build.
		_ = r.storeDisk(key, art)
	}
	return art, nil
}

// loadDisk returns the cached artifact or nil if absent/stale/corrupt.
func (r *Registry) loadDisk(key Key) *Artifact {
	data, err := os.ReadFile(r.path(key))
	if err != nil {
		return nil
	}
	var da diskArtifact
	if err := json.Unmarshal(data, &da); err != nil {
		return nil
	}
	if da.Version != diskFormatVersion || da.Key != key || da.Program == nil {
		return nil
	}
	if err := da.Program.Validate(); err != nil {
		return nil
	}
	return &Artifact{
		Key:          da.Key,
		Program:      da.Program,
		Support:      da.Support,
		Delta:        da.Delta,
		LeafCount:    da.LeafCount,
		SublistCount: da.SublistCount,
		FromDisk:     true,
	}
}

// storeDisk writes the artifact atomically (temp file + rename) so a
// concurrent reader never observes a truncated cache file.  The directory
// is created private (0700): cached circuits are loaded with only
// structural validation, so the cache directory must not be writable by
// untrusted users — a planted file could substitute a biased sampler.
func (r *Registry) storeDisk(key Key, art *Artifact) error {
	if err := os.MkdirAll(r.dir, 0o700); err != nil {
		return err
	}
	da := diskArtifact{
		Version:      diskFormatVersion,
		Key:          key,
		Support:      art.Support,
		Delta:        art.Delta,
		LeafCount:    art.LeafCount,
		SublistCount: art.SublistCount,
		Program:      art.Program,
	}
	data, err := json.Marshal(da)
	if err != nil {
		return err
	}
	return writeFileAtomic(r.dir, r.path(key), data)
}

// writeFileAtomic writes data to dst via a temp file + rename so a
// concurrent reader never observes a truncated cache file.
func writeFileAtomic(dir, dst string, data []byte) error {
	tmp, err := os.CreateTemp(dir, "ctgauss-*.tmp")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), dst); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}
