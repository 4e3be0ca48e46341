//go:build !amd64

package bitslice

// runSIMD has no kernels off amd64; evaluation always takes runWide16.
// (dispatch never selects a vector backend on these platforms, so this
// stub is unreachable in practice but keeps the call site
// unconditional.)
func (o *Optimized) runSIMD(inputs, slots, out []uint64) bool {
	return false
}
