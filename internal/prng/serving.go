package prng

import (
	"os"
	"strings"
)

// Serving returns the generator the serving surfaces (pools, the
// arbitrary layer, the server and ctgaussd) use when their config leaves
// PRNG empty: "aes-ctr" exactly when crypto/aes runs on AES
// instructions, "chacha20" otherwise.
//
// This is a constant-time condition, not tuning.  Without hardware
// support Go's AES falls back to lookup tables, which are not constant
// time (see the crypto/aes package documentation).  On amd64 the test
// mirrors crypto/aes's own: AES-NI, SSE4.1 and SSSE3 present, no GODEBUG
// field turning one of them off (cpu.aes, cpu.sse41, cpu.ssse3 or
// cpu.all set to off), and no purego build tag.  Other architectures get
// "chacha20"; detecting the arm64 AES extension is left open.
func Serving() string { return serving }

var serving = servingPRNG(hardwareAES, os.Getenv("GODEBUG"))

// aesFeatures are the GODEBUG cpu.* names of the features crypto/aes's
// amd64 assembly depends on.
var aesFeatures = []string{"aes", "sse41", "ssse3"}

// servingPRNG resolves Serving from the hardware probe and a GODEBUG
// value.  It reads the cpu.* fields the way the runtime does: in order,
// later fields overriding earlier ones, cpu.all standing for every
// feature.  At GOAMD64=v2 and above the runtime ignores cpu.sse41 and
// cpu.ssse3; honouring them here anyway only errs towards ChaCha20.
func servingPRNG(hw bool, godebug string) string {
	off := map[string]bool{}
	for _, field := range strings.Split(godebug, ",") {
		key, value, _ := strings.Cut(field, "=")
		feature, ok := strings.CutPrefix(key, "cpu.")
		if !ok || (value != "on" && value != "off") {
			continue
		}
		for _, f := range aesFeatures {
			if feature == f || feature == "all" {
				off[f] = value == "off"
			}
		}
	}
	if !hw || off["aes"] || off["sse41"] || off["ssse3"] {
		return "chacha20"
	}
	return "aes-ctr"
}
