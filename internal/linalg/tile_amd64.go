package linalg

import "math"

// tile4x8 subtracts 32 products at a time: for kk = 0…k−1 in ascending
// order, acc[c·4+r] −= v[4·kk+r] · s[c·stride+kk], where v is a stream of
// four lanes stored k-major and s points at eight rows stride floats apart.
// Each lane performs its entry's own multiply and subtract in 256-bit AVX
// registers, with no fused multiply-add, so every entry rounds exactly as
// the scalar acc −= v·s does. It reads v[:4·k] and s[c·stride:][:k].
//
//go:noescape
func tile4x8(v, s *float64, stride, k int, acc *[32]float64)

// sqdist4x8 writes a 4×8 tile of squared distances per block: for
// b < blocks, out[r·stride + 8b + c] = Σ_f (q[8f+r] − p[8d·b + 8f + c])²,
// summed from +0 over ascending f. q and p point into 8-row feature-major
// panels (see sqDistPanels). Each lane subtracts, squares and adds in
// 256-bit AVX registers with no fused multiply-add, so every entry equals
// SqDist of the two examples' rows bit for bit.
//
//go:noescape
func sqdist4x8(q, p *float64, d, blocks int, out *float64, stride int)

// expNegDiv4 sets x[j:j+4] to math.Exp(−x[j+l]/denom) four lanes at a time
// for j = 0, 4, … while j+4 ≤ n, repeating the FMA path of math.Exp's amd64
// assembly operation for operation. It stops at the first block with an
// argument outside [−708, 709] (NaN and ±Inf included), leaving that block
// as it was, and returns its index, or n rounded down to a multiple of 4.
//
//go:noescape
func expNegDiv4(x *float64, n int, denom float64) (done int)

// cpuid returns the registers CPUID reports for a leaf and subleaf.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 returns the low word of extended control register 0.
func xgetbv0() (eax uint32)

// useTile routes NewCholesky, InverseDiagonal and SqDistLowerInto through
// the AVX leaves tile4x8 and sqdist4x8. It holds when the CPU has AVX and
// the OS saves the YMM registers; otherwise the scalar loops run. Tests
// flip it to run both paths.
var useTile = hasAVX(false)

// useExp routes RBFExp through expNegDiv4. It needs AVX2 and FMA as well,
// and it holds only where math.Exp itself takes its FMA path: that choice
// is made inside package math (GODEBUG=cpu.fma=off or cpu.avx=off turns
// it off), so expProbe checks it on arguments whose FMA and non-FMA
// results differ. Otherwise RBFExp calls math.Exp.
var useExp = hasAVX(true) && expProbe(math.Exp)

// hasAVX reports whether the CPU has AVX and the OS saves the YMM
// registers; with fma it also requires AVX2 and FMA.
func hasAVX(fma bool) bool {
	const osxsave, avx, fma3 = 1 << 27, 1 << 28, 1 << 12
	const xmm, ymm = 1 << 1, 1 << 2
	const avx2 = 1 << 5
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, ecx, _ := cpuid(1, 0)
	// XGETBV faults unless the OS has enabled it (OSXSAVE).
	if ecx&osxsave == 0 || ecx&avx == 0 || xgetbv0()&(xmm|ymm) != xmm|ymm {
		return false
	}
	if !fma {
		return true
	}
	if ecx&fma3 == 0 || maxLeaf < 7 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// expProbes are arguments on which math.Exp's FMA and non-FMA paths differ
// in the last bit, two blocks of four.
var expProbes = [8]float64{
	-3.178425455991323, -3.8773685295492664, -4.466985470592198, -10.14162002060242,
	-25.173267665812027, -207.51611499446557, -486.27073558991344, -706.7778581940141,
}

// expProbe reports whether expNegDiv4 agrees with exp on expProbes bit for
// bit. With exp = math.Exp it does only when math.Exp runs its FMA path.
func expProbe(exp func(float64) float64) bool {
	x := expProbes
	for i := range x {
		x[i] = -x[i]
	}
	if expNegDiv4(&x[0], len(x), 1) != len(x) {
		return false
	}
	for i, v := range expProbes {
		if math.Float64bits(x[i]) != math.Float64bits(exp(v)) {
			return false
		}
	}
	return true
}
