package linalg

// tile4x8 subtracts 32 products at a time: for kk = 0…k−1 in ascending
// order, acc[c·4+r] −= v[4·kk+r] · s[c·stride+kk], where v is a stream of
// four lanes stored k-major and s points at eight rows stride floats apart.
// Each lane performs its entry's own multiply and subtract in 256-bit AVX
// registers, with no fused multiply-add, so every entry rounds exactly as
// the scalar acc −= v·s does. It reads v[:4·k] and s[c·stride:][:k].
//
//go:noescape
func tile4x8(v, s *float64, stride, k int, acc *[32]float64)

// cpuid1 returns ECX of CPUID leaf 1.
func cpuid1() (ecx uint32)

// xgetbv0 returns the low word of extended control register 0.
func xgetbv0() (eax uint32)

// useTile routes NewCholesky and InverseDiagonal through tile4x8. It holds
// when the CPU has AVX and the OS saves the YMM registers; otherwise the
// scalar loops run. Tests flip it to run both paths.
var useTile = hasAVX()

func hasAVX() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	const xmm, ymm = 1 << 1, 1 << 2
	ecx := cpuid1()
	// XGETBV faults unless the OS has enabled it (OSXSAVE).
	return ecx&osxsave != 0 && ecx&avx != 0 && xgetbv0()&(xmm|ymm) == xmm|ymm
}
