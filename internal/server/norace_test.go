//go:build !race

package server

// raceEnabled reports whether the race detector is on; long sweeps run
// at a reduced size under it.
const raceEnabled = false
