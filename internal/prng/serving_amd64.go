//go:build amd64 && !purego

package prng

import "ctgauss/internal/bitslice/dispatch"

// hardwareAES reports whether crypto/aes's AES-NI assembly can run here,
// before GODEBUG's switches are applied.
var hardwareAES = dispatch.HasAES()
