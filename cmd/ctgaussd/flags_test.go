package main

import (
	"flag"
	"slices"
	"strings"
	"testing"
)

// TestFlagSet pins the daemon's settings.  A flag added or removed here
// changes what every deployment can vary, so it has to change this list
// too.
func TestFlagSet(t *testing.T) {
	want := []string{
		"addr", "arbitrary", "arbitrary-shards", "cache", "debug-addr",
		"drain-timeout", "falcon-n", "falcon-shards", "log-format",
		"log-level", "max-count", "prng", "queue", "request-timeout",
		"seed", "shards", "sigmas", "slow-request", "tier-promote-rps",
		"tier-window", "trace", "version",
	}
	var got []string
	flag.CommandLine.VisitAll(func(f *flag.Flag) {
		if !strings.HasPrefix(f.Name, "test.") {
			got = append(got, f.Name)
		}
	})
	if !slices.Equal(got, want) {
		t.Fatalf("ctgaussd flags = %v (%d), want %v (%d)", got, len(got), want, len(want))
	}
}
