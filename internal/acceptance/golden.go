package acceptance

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"ctgauss/internal/bitslice"
	"ctgauss/internal/core"
	"ctgauss/internal/prng"
	"ctgauss/internal/registry"
	"ctgauss/internal/sampler"
	"ctgauss/internal/sampler/gen"
)

// GoldenCase identifies one pinned stream: a sampler construction whose
// exact output is part of the repository's contract.
type GoldenCase struct {
	// Name is the stable identifier ("interp/chacha20/w16", ...); the seed
	// derives from it, so renaming a case re-keys its stream.
	Name string `json:"name"`
	// Kind is "interp" (bitsliced interpreter at Width) or "compiled"
	// (pregenerated native circuit, width 1).
	Kind      string `json:"kind"`
	Sigma     string `json:"sigma"`
	Precision int    `json:"precision"`
	PRNG      string `json:"prng"`
	Width     int    `json:"width"`
	// Count is the pinned stream length in samples.
	Count int `json:"count"`
}

// GoldenVector is a case plus its pinned digest.
type GoldenVector struct {
	GoldenCase
	// SHA256 is the hex digest of the Count samples as little-endian
	// int64 words.
	SHA256 string `json:"sha256"`
	// Head is the first few samples in the clear, so a mismatch report is
	// debuggable without re-deriving the stream.
	Head []int `json:"head"`
}

// GoldenFile is the on-disk golden set (testdata/golden.json).
type GoldenFile struct {
	Version int            `json:"version"`
	Vectors []GoldenVector `json:"vectors"`
}

// GoldenDepths are the engine prefetch depths every vector is verified
// at: the synchronous path, the default double buffer, and a deep ring.
// Identity across all of them is the cross-depth stream contract.
var GoldenDepths = []int{0, 2, 5}

// goldenCount is the pinned stream length: four refills at the widest
// lane configuration, enough to cross several slot boundaries at every
// depth.
const goldenCount = 2048

// GoldenCases enumerates the pinned set: every PRNG backend at both
// evaluation widths on the interpreter path (reduced precision for build
// speed — the stream contract is configuration-specific, not
// precision-blind), plus the full-precision pregenerated native circuits.
func GoldenCases() []GoldenCase {
	var cases []GoldenCase
	for _, prngName := range []string{"chacha20", "shake256", "aes-ctr"} {
		// Width 1 pins the paper's per-batch layout, bitslice.Width the
		// layout every interpreted serving stream runs at.
		for _, w := range []int{1, bitslice.Width} {
			cases = append(cases, GoldenCase{
				Name:      fmt.Sprintf("interp/%s/w%d", prngName, w),
				Kind:      "interp",
				Sigma:     "2",
				Precision: 48,
				PRNG:      prngName,
				Width:     w,
				Count:     goldenCount,
			})
		}
	}
	// AES-CTR is what ctgauss.NewPool serves where crypto/aes runs on
	// AES instructions (prng.Serving), so its compiled streams are
	// pinned too.
	for _, prngName := range []string{"chacha20", "aes-ctr"} {
		for _, sig := range gen.Sigmas() {
			cases = append(cases, GoldenCase{
				Name:      "compiled/" + prngName + "/" + sig,
				Kind:      "compiled",
				Sigma:     sig,
				Precision: 128,
				PRNG:      prngName,
				Width:     1,
				Count:     goldenCount,
			})
		}
	}
	return cases
}

// goldenStream regenerates a case's stream through the engine runtime at
// the given prefetch depth.
func goldenStream(c GoldenCase, depth int) ([]int, error) {
	art, err := registry.Shared().Get(core.Config{
		Sigma:   c.Sigma,
		N:       c.Precision,
		TailCut: 13,
		Min:     core.MinimizeExact,
	})
	if err != nil {
		return nil, fmt.Errorf("acceptance: golden %s: build: %w", c.Name, err)
	}
	newSampler := func(src prng.Source) sampler.BatchSampler { return art.NewWideSampler(src, c.Width) }
	switch c.Kind {
	case "interp":
	case "compiled":
		fn, nin, nval, ok := gen.Lookup(c.Sigma)
		if !ok {
			return nil, fmt.Errorf("acceptance: golden %s: no generated circuit for σ=%s", c.Name, c.Sigma)
		}
		if nin != art.Program.NumInputs || nval != art.Program.ValueBits {
			return nil, fmt.Errorf("acceptance: golden %s: generated circuit shape (%d in, %d bits) diverges from build (%d in, %d bits) — rerun go generate",
				c.Name, nin, nval, art.Program.NumInputs, art.Program.ValueBits)
		}
		newSampler = func(src prng.Source) sampler.BatchSampler {
			return sampler.NewCompiled("golden-compiled("+c.Sigma+")", fn, nin, nval, src)
		}
	default:
		return nil, fmt.Errorf("acceptance: golden %s: unknown kind %q", c.Name, c.Kind)
	}
	eng, err := sampler.NewEngine(1, c.Width, depth, func(int) (sampler.BatchSampler, error) {
		src, err := prng.NewSource(c.PRNG, deriveSeed("golden/"+c.Name))
		if err != nil {
			return nil, err
		}
		return newSampler(src), nil
	})
	if err != nil {
		return nil, fmt.Errorf("acceptance: golden %s: %w", c.Name, err)
	}
	defer eng.Close()
	out := make([]int, c.Count)
	if err := eng.TakeFrom(nil, 0, out); err != nil {
		return nil, fmt.Errorf("acceptance: golden %s: %w", c.Name, err)
	}
	return out, nil
}

// hashSamples digests samples as little-endian int64 words.
func hashSamples(samples []int) string {
	h := sha256.New()
	var buf [8]byte
	for _, s := range samples {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(s)))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// RecordGolden regenerates every case at the synchronous depth and
// writes the golden file.  Run it (ctcheck -golden record) only when a
// stream change is intended — see docs/ACCEPTANCE.md for the rotation
// protocol.
func RecordGolden(path string) (*GoldenFile, error) {
	gf := &GoldenFile{Version: ReportVersion}
	for _, c := range GoldenCases() {
		stream, err := goldenStream(c, 0)
		if err != nil {
			return nil, err
		}
		head := stream
		if len(head) > 8 {
			head = head[:8]
		}
		gf.Vectors = append(gf.Vectors, GoldenVector{
			GoldenCase: c,
			SHA256:     hashSamples(stream),
			Head:       append([]int(nil), head...),
		})
	}
	data, err := json.MarshalIndent(gf, "", "  ")
	if err != nil {
		return nil, err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return nil, err
	}
	return gf, nil
}

// loadGolden reads and parses a pinned golden file.
func loadGolden(path string) (*GoldenFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("acceptance: reading golden file: %w", err)
	}
	var gf GoldenFile
	if err := json.Unmarshal(data, &gf); err != nil {
		return nil, fmt.Errorf("acceptance: parsing golden file %s: %w", path, err)
	}
	return &gf, nil
}

// VerifyGolden checks every current case against the pinned file at
// every depth in GoldenDepths.  A case missing from the file, a stale
// vector without a matching case, or any digest mismatch fails.
func VerifyGolden(path string) ([]GoldenResult, error) {
	gf, err := loadGolden(path)
	if err != nil {
		return nil, err
	}
	pinned := make(map[string]GoldenVector, len(gf.Vectors))
	for _, v := range gf.Vectors {
		pinned[v.Name] = v
	}

	var results []GoldenResult
	current := GoldenCases()
	seen := make(map[string]bool, len(current))
	for _, c := range current {
		seen[c.Name] = true
		res := GoldenResult{Name: c.Name, PRNG: c.PRNG, Width: c.Width}
		v, ok := pinned[c.Name]
		if !ok {
			res.Err = "case not in golden file — record it"
			results = append(results, res)
			continue
		}
		if v.GoldenCase != c {
			res.Err = fmt.Sprintf("pinned parameters %+v diverge from current case %+v", v.GoldenCase, c)
			results = append(results, res)
			continue
		}
		res.SHA256 = v.SHA256
		res.Pass = true
		for _, depth := range GoldenDepths {
			stream, err := goldenStream(c, depth)
			if err != nil {
				res.Pass = false
				res.Err = err.Error()
				break
			}
			if got := hashSamples(stream); got != v.SHA256 {
				res.Pass = false
				res.Err = fmt.Sprintf("depth %d stream digest %s != pinned %s (head now %v, pinned %v)",
					depth, got[:16], v.SHA256[:16], stream[:min(8, len(stream))], v.Head)
				break
			}
			res.DepthsVerified = append(res.DepthsVerified, depth)
		}
		results = append(results, res)
	}
	for _, v := range gf.Vectors {
		if !seen[v.Name] {
			results = append(results, GoldenResult{
				Name: v.Name, PRNG: v.PRNG, Width: v.Width, SHA256: v.SHA256,
				Err: "stale vector: no current case — re-record the golden file",
			})
		}
	}
	return results, nil
}
