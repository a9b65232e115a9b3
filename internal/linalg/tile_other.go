//go:build !amd64

package linalg

// lanes is 0 and useExp false off amd64: NewCholesky, InverseDiagonal,
// SolveMany, SqDistLowerInto and RBFExp run their scalar loops.
var (
	lanes  = 0
	useExp = false
)

// The register tiles are never called off amd64.
func tile4x8(v, s *float64, stride, k int, acc *[32]float64) {
	panic("linalg: tile4x8 without AVX")
}

func tile8x8(v, s *float64, stride, k int, acc *[64]float64) {
	panic("linalg: tile8x8 without AVX-512")
}

func tile4x8fin(v, s *float64, stride, k int, acc *[32]float64) {
	panic("linalg: tile4x8fin without AVX")
}

func tile8x8fin(v, s *float64, stride, k int, acc *[64]float64) {
	panic("linalg: tile8x8fin without AVX-512")
}

// sqdist4x8 is never called off amd64.
func sqdist4x8(q, p *float64, d, blocks int, out *float64, stride int) {
	panic("linalg: sqdist4x8 without AVX")
}

// expNegDiv4 is never called off amd64.
func expNegDiv4(x *float64, n int, denom float64) int {
	panic("linalg: expNegDiv4 without AVX2")
}
