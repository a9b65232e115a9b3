package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// tileAvailable and expAvailable record whether this host runs the AVX
// leaves and the exp leaf, before any test flips useTile or useExp.
var tileAvailable, expAvailable = useTile, useExp

// leafPaths returns the code paths this host can run: the scalar loops
// always, the AVX leaves where the CPU has them.
func leafPaths() []bool {
	if tileAvailable {
		return []bool{false, true}
	}
	return []bool{false}
}

// withLeaf selects one code path for a test — the leaves on, with the exp
// leaf where this host runs it, or every scalar loop — and returns the
// function that restores the host's path.
func withLeaf(on bool) func() {
	oldTile, oldExp := useTile, useExp
	useTile, useExp = on, on && expAvailable
	return func() { useTile, useExp = oldTile, oldExp }
}

// pathName labels a subtest by the code path it runs.
func pathName(tile bool) string {
	if tile {
		return "leaf"
	}
	return "scalar"
}

// leafValue draws a float64 that is often awkward: signed zeros,
// subnormals, and magnitudes whose products overflow to ±Inf.
func leafValue(rng *rand.Rand) float64 {
	sign := 1.0
	if rng.Intn(2) == 0 {
		sign = -1
	}
	switch rng.Intn(8) {
	case 0:
		return math.Copysign(0, sign)
	case 1:
		return sign * math.SmallestNonzeroFloat64 * float64(rng.Intn(1<<20))
	case 2:
		return sign * 0x1p-1020 * rng.Float64()
	case 3:
		return sign * 1e200 * (1 + rng.Float64())
	default:
		return sign * rng.NormFloat64()
	}
}

// TestTileLeafMatchesScalar pins every lane of the AVX leaf to the scalar
// acc −= v·s over the same k order, bit for bit, including signed zeros,
// subnormal operands and results, and products that overflow to ±Inf.
func TestTileLeafMatchesScalar(t *testing.T) {
	if !tileAvailable {
		t.Skip("no AVX on this CPU")
	}
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 400; trial++ {
		k := rng.Intn(301)
		stride := k + rng.Intn(5)
		v := make([]float64, 4*k+1)
		s := make([]float64, 8*stride+1)
		for i := range v {
			v[i] = leafValue(rng)
		}
		for i := range s {
			s[i] = leafValue(rng)
		}
		var acc, want [32]float64
		for i := range acc {
			acc[i] = leafValue(rng)
		}
		want = acc
		for c := 0; c < 8; c++ {
			for r := 0; r < 4; r++ {
				x := want[c*4+r]
				for kk := 0; kk < k; kk++ {
					x -= v[4*kk+r] * s[c*stride+kk]
				}
				want[c*4+r] = x
			}
		}
		tile4x8(&v[0], &s[0], stride, k, &acc)
		for i := range want {
			if math.Float64bits(acc[i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d (k=%d): lane %d = %v (%#x), scalar %v (%#x)",
					trial, k, i, acc[i], math.Float64bits(acc[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}
}
