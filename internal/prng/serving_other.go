//go:build !amd64 || purego

package prng

// hardwareAES is false where Serving does not detect crypto/aes's
// hardware path: purego builds, which drop its assembly, and every
// architecture but amd64 (arm64 detection is left open).
const hardwareAES = false
