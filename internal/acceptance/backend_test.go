package acceptance

import (
	"testing"

	"ctgauss/internal/bitslice"
	"ctgauss/internal/bitslice/dispatch"
)

// TestGoldenBackendsIdentical forces every backend this machine can run
// — portable always, plus AVX2 where detected — and regenerates the
// interpreter golden streams at bitslice.Width, the width the AVX2
// kernel runs, under each.  Every backend must produce the SHA-256
// digest pinned in testdata/golden.json: the backend changes who
// executes the instruction stream, never a single emitted sample.  This
// is the serving deployment's cross-fleet contract — a mixed AVX2/
// portable fleet shards one logical stream space.
func TestGoldenBackendsIdentical(t *testing.T) {
	pinned := map[string]string{}
	gf, err := loadGolden("testdata/golden.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range gf.Vectors {
		pinned[v.Name] = v.SHA256
	}

	var cases []GoldenCase
	for _, c := range GoldenCases() {
		if c.Kind == "interp" && c.Width == bitslice.Width {
			cases = append(cases, c)
		}
	}
	if len(cases) == 0 {
		t.Fatal("no interp golden cases at the SIMD width")
	}

	backends := append([]dispatch.Backend{dispatch.Portable}, dispatch.Detected()...)
	for _, backend := range backends {
		backend := backend
		t.Run(backend.String(), func(t *testing.T) {
			restore, err := dispatch.Force(backend)
			if err != nil {
				t.Fatal(err)
			}
			defer restore()
			for _, c := range cases {
				want, ok := pinned[c.Name]
				if !ok {
					t.Errorf("%s: not pinned in golden file", c.Name)
					continue
				}
				stream, err := goldenStream(c, 0)
				if err != nil {
					t.Fatalf("%s under %s: %v", c.Name, backend, err)
				}
				if got := hashSamples(stream); got != want {
					t.Errorf("%s under %s: digest %s… != pinned %s… (head %v)",
						c.Name, backend, got[:16], want[:16], stream[:8])
				}
			}
		})
	}
}
