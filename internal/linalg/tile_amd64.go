package linalg

import "math"

// The register tiles of tile_amd64.s. With L lanes (4 in 256-bit AVX
// registers, 8 in 512-bit AVX-512 ones) each subtracts 8·L products at a
// time: for kk = 0…k−1 in ascending order, acc[c·L+r] −= v[L·kk+r] ·
// s[c·stride+kk], where v is a stream of L lanes stored k-major and s
// points at eight rows stride floats apart. The finishing variants then
// complete the 8×8 triangle to the right of column k: for c = 0…7, lane
// vector c subtracts acc[kk·L+r] · s[c·stride+k+kk] for kk < c in
// ascending order, with acc[kk·L+r] already finished, is divided by
// s[c·stride+k+c], and is stored to v[L·(k+c)+r] as well as to acc. Each
// lane performs its entry's own multiplies, subtractions and division,
// with no fused multiply-add, so every entry rounds exactly as the scalar
// acc −= v·s and acc /= s do. The plain leaves read v[:L·k] and
// s[c·stride:][:k], the finishing ones s[c·stride:][:k+c+1] and write
// v[L·k:L·(k+8)].
//
//go:noescape
func tile4x8(v, s *float64, stride, k int, acc *[32]float64)

//go:noescape
func tile8x8(v, s *float64, stride, k int, acc *[64]float64)

//go:noescape
func tile4x8fin(v, s *float64, stride, k int, acc *[32]float64)

//go:noescape
func tile8x8fin(v, s *float64, stride, k int, acc *[64]float64)

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

// lanes is the width of the register tile under NewCholesky,
// InverseDiagonal and SolveMany: 8 when the CPU has AVX-512F and the OS
// saves the ZMM registers, 4 when it has AVX and the OS saves the YMM
// ones, and 0 otherwise, where the scalar loops run. With any tile,
// SqDistLowerInto runs the AVX leaf sqdist4x8. Tests flip it to run every
// width.
var lanes = tileWidth()

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

// tileWidth returns the lane width of the widest register tile this CPU
// runs and its OS saves: 8 with AVX-512F (CPUID.(7,0):EBX bit 16) and the
// XMM, YMM, opmask and both halves of ZMM state enabled in XCR0 (bits 1,
// 2, 5, 6 and 7), 4 with AVX, and 0 without.
func tileWidth() int {
	const avx512f, zmmState = 1 << 16, 0xe6
	if !hasAVX(false) {
		return 0
	}
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return 4
	}
	if _, ebx, _, _ := cpuid(7, 0); ebx&avx512f == 0 || xgetbv0()&zmmState != zmmState {
		return 4
	}
	return 8
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
