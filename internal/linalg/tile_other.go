//go:build !amd64

package linalg

// useTile is false off amd64: NewCholesky and InverseDiagonal run their
// scalar loops.
var useTile = false

// tile4x8 is never called off amd64.
func tile4x8(v, s *float64, stride, k int, acc *[32]float64) {
	panic("linalg: tile4x8 without AVX")
}
