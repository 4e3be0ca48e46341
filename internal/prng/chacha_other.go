//go:build !amd64 || purego

package prng

// fillBlocks8 has no vector kernel here: every block is the Go block.
func (c *ChaCha20) fillBlocks8(p []byte) []byte { return p }
