package convolve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// menuDigest hashes a menu: per recipe, the width's float64 bits, then
// each term's base and coefficient (8 bytes little-endian each), then a
// 0xff separator.  It returns the digest and the total term count.
func menuDigest(menu []*recipe) (string, int) {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	n := 0
	for _, rc := range menu {
		put(math.Float64bits(rc.width))
		for _, tm := range rc.terms {
			put(uint64(tm.Base))
			put(uint64(tm.Coeff))
			n++
		}
		h.Write([]byte{0xff})
	}
	return hex.EncodeToString(h.Sum(nil)), n
}

// TestMenuPinned pins the default base set's recipe menu: every served
// σ's plan is a lookup in it, so a change to the enumeration that moved
// a recipe would move the arbitrary layer's streams.
func TestMenuPinned(t *testing.T) {
	menu := buildMenu([]float64{2, 6.15543})
	digest, n := menuDigest(menu)
	if len(menu) != 358 || n != 1401 {
		t.Fatalf("menu has %d recipes and %d terms, want 358 and 1401", len(menu), n)
	}
	const want = "ecfb67958b739e85a90f9d893b1a3527bb7061c0a19d65922b45f29bb62339fc"
	if digest != want {
		t.Fatalf("menu digest %s, want %s", digest, want)
	}
}

// TestMenuBuildBounded bounds the allocations of one menu build: only
// bucket winners may be allocated, not every candidate recipe (about two
// million of them for the default base set).
func TestMenuBuildBounded(t *testing.T) {
	allocs := testing.AllocsPerRun(1, func() {
		buildMenu([]float64{2, 6.15543})
	})
	if allocs > 10000 {
		t.Fatalf("one buildMenu call made %.0f allocations, want at most 10,000", allocs)
	}
}
