package ctgauss_test

import (
	"testing"

	"ctgauss"
)

// TestArbitraryDegradedAllocs pins Degraded at zero allocations: the
// serving layer asks it on every convolved request.
// TestChaosArbitraryShedsFirst (internal/server) pins the degraded case.
func TestArbitraryDegradedAllocs(t *testing.T) {
	arb, err := ctgauss.NewArbitrary(ctgauss.ArbitraryConfig{BaseSigmas: []string{"2"}, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer arb.Close()
	if arb.Degraded() {
		t.Fatal("fresh Arbitrary reports degraded")
	}
	if a := testing.AllocsPerRun(100, func() { arb.Degraded() }); a != 0 {
		t.Fatalf("Degraded allocates %.1f times per call, want 0", a)
	}
}
