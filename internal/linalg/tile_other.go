//go:build !amd64

package linalg

// useTile and useExp are false off amd64: NewCholesky, InverseDiagonal,
// SqDistLowerInto and RBFExp run their scalar loops.
var (
	useTile = false
	useExp  = false
)

// tile4x8 is never called off amd64.
func tile4x8(v, s *float64, stride, k int, acc *[32]float64) {
	panic("linalg: tile4x8 without AVX")
}

// sqdist4x8 is never called off amd64.
func sqdist4x8(q, p *float64, d, blocks int, out *float64, stride int) {
	panic("linalg: sqdist4x8 without AVX")
}

// expNegDiv4 is never called off amd64.
func expNegDiv4(x *float64, n int, denom float64) int {
	panic("linalg: expNegDiv4 without AVX2")
}
