package main

import (
	"strings"
	"testing"
)

func TestParsePrefetch(t *testing.T) {
	for in, want := range map[string]int{"": 0, "sync": -1, "0": -1, "4": 4, " 8 ": 8} {
		if got, err := parsePrefetch(in); err != nil || got != want {
			t.Errorf("parsePrefetch(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	// Anything else, per-σ "σ=depth" entries included, fails at startup
	// with an error naming the accepted forms.
	for _, in := range []string{"2=4", "8,6.15543=sync", "4,8", "-1", "deep"} {
		_, err := parsePrefetch(in)
		if err == nil || !strings.Contains(err.Error(), "depth") || !strings.Contains(err.Error(), "'sync'") {
			t.Errorf("parsePrefetch(%q) error = %v, want one naming a depth and 'sync'", in, err)
		}
	}
}
