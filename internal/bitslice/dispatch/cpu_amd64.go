package dispatch

// CPU feature probing via raw CPUID/XGETBV (cpu_amd64.s) — the module is
// dependency-free, so no golang.org/x/sys/cpu.

// cpuid executes CPUID with the given leaf/subleaf.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads XCR0 (extended control register 0): which register state
// the OS saves and restores across context switches.
func xgetbv() (eax, edx uint32)

// ymmState is the XCR0 state-component mask the AVX2 kernels depend on:
// the OS must preserve xmm+ymm state across context switches, or the
// registers are silently corrupted.
const ymmState = 0x6 // XCR0[2:1] = SSE, AVX

// probe returns the SIMD backends this CPU and OS support, in ascending
// preference order.  Portable is implicit and never included.
func probe() []Backend {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return nil
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const (
		osxsave = 1 << 27
		avx     = 1 << 28
	)
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return nil
	}
	xcr0, _ := xgetbv()
	if xcr0&ymmState != ymmState {
		return nil
	}
	_, ebx7, _, _ := cpuid(7, 0)
	if ebx7&(1<<5) == 0 { // AVX2
		return nil
	}
	return []Backend{AVX2}
}

// HasAES reports whether the CPU has the instructions Go's crypto/aes
// assembly requires on amd64: AES-NI, SSE4.1 and SSSE3 (CPUID leaf 1,
// ECX bits 25, 19 and 9), the test crypto/internal/fips140/aes makes.
// It reads the hardware only; honouring GODEBUG's cpu.* switches is the
// caller's job (see prng.Serving).
func HasAES() bool {
	_, _, ecx1, _ := cpuid(1, 0)
	const want = 1<<25 | 1<<19 | 1<<9
	return ecx1&want == want
}
