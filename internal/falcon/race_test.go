//go:build race

package falcon

// raceEnabled reports whether the race detector is on; it instruments
// memory accesses with allocations of its own, so allocation counts are
// not checked under it.
const raceEnabled = true
