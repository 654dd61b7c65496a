//go:build amd64 && !purego

package tensor

// Minimal vendored CPU-feature probe (the golang.org/x/sys/cpu subset the
// backends need), kept dependency-free. Detection runs during package
// variable initialisation — before init() selects a backend — via the
// registration var in backend_amd64.go.

// cpuid executes CPUID for (leaf, sub); implemented in cpuid_amd64.s.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads XCR0 (requires OSXSAVE); implemented in cpuid_amd64.s.
func xgetbv() (eax, edx uint32)

// detectAMD64 reports whether the CPU and OS support the AVX2 assembly
// kernels, and whether the CPU also executes the 256-bit FMA instructions
// of the exp kernel. Instruction support alone is not enough: the OS must
// have enabled the YMM register state in XCR0, or executing a VEX
// instruction faults.
func detectAMD64() (avx2, fma bool) {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false, false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const (
		fmaBit     = 1 << 12
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	if ecx1&osxsaveBit == 0 || ecx1&avxBit == 0 {
		return false, false
	}
	xcr0, _ := xgetbv()
	const ymmState = 0x6 // XMM + YMM
	if xcr0&ymmState != ymmState {
		return false, false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2Bit = 1 << 5
	avx2 = ebx7&avx2Bit != 0
	return avx2, avx2 && ecx1&fmaBit != 0
}
