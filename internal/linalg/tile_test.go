package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// hostLanes and expAvailable record the tile width and the exp leaf this
// host runs, before any test flips lanes or useExp.
var hostLanes, expAvailable = lanes, useExp

// tileWidths are the widths of the register tiles: 4 lanes under AVX and
// 8 under AVX-512F.
var tileWidths = []int{4, 8}

// withLeaf selects the code path of one tile width for a test — with the
// exp leaf where this host runs it, or every scalar loop at width 0 — and
// returns the function that restores the host's path.
func withLeaf(width int) func() {
	oldLanes, oldExp := lanes, useExp
	lanes, useExp = width, width > 0 && expAvailable
	return func() { lanes, useExp = oldLanes, oldExp }
}

// requireLanes skips a test of the tile of l lanes on a host that cannot
// run it.
func requireLanes(tb testing.TB, l int) {
	tb.Helper()
	if l > hostLanes {
		tb.Skipf("this host runs tiles of at most %d lanes: the %d-lane tile needs %s",
			hostLanes, l, map[int]string{4: "AVX with YMM state", 8: "AVX-512F with ZMM state"}[l])
	}
}

// forEachLeaf runs f as subtests on every code path: "scalar", with
// every scalar loop, and under "leaf" one subtest per tile width in
// widths, which skips, saying why, on a host that cannot run it.
func forEachLeaf(t *testing.T, widths []int, f func(t *testing.T)) {
	t.Run("scalar", func(t *testing.T) {
		defer withLeaf(0)()
		f(t)
	})
	t.Run("leaf", func(t *testing.T) {
		for _, l := range widths {
			t.Run(fmt.Sprintf("%d-lane", l), func(t *testing.T) {
				requireLanes(t, l)
				defer withLeaf(l)()
				f(t)
			})
		}
	})
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

// scalarLeaf restates the register tiles' rule (see tile4x8) entry by
// entry with scalar float64 operations: the oracle every lane must match.
func scalarLeaf(l int, fin bool, v, s []float64, stride, k int, acc []float64) {
	for c := range 8 {
		for r := range l {
			x := acc[c*l+r]
			for kk := range k {
				x -= v[l*kk+r] * s[c*stride+kk]
			}
			acc[c*l+r] = x
		}
	}
	if !fin {
		return
	}
	for c := range 8 {
		for r := range l {
			x := acc[c*l+r]
			for kk := range c {
				x -= acc[kk*l+r] * s[c*stride+k+kk]
			}
			x /= s[c*stride+k+c]
			acc[c*l+r], v[l*(k+c)+r] = x, x
		}
	}
}

// TestTileLeafMatchesScalar pins every lane of both tile widths, plain
// and finishing, to scalarLeaf over the same k order, bit for bit: k from
// 0 up to 300, signed zeros, subnormal operands and results, products
// that overflow to ±Inf, and pivots of ±0, subnormal and ±Inf magnitude.
// The finishing leaves must store exactly the finished lanes into v.
func TestTileLeafMatchesScalar(t *testing.T) {
	for _, l := range tileWidths {
		for _, fin := range []bool{false, true} {
			t.Run(fmt.Sprintf("%d-lane finish=%v", l, fin), func(t *testing.T) {
				requireLanes(t, l)
				rng := rand.New(rand.NewSource(19))
				for trial := range 400 {
					k := rng.Intn(301)
					if trial < 3 {
						k = trial
					}
					stride := k + 8 + rng.Intn(5)
					v := make([]float64, l*(k+8)+1)
					s := make([]float64, 8*stride+1)
					for i := range v {
						v[i] = leafValue(rng)
					}
					for i := range s {
						s[i] = leafValue(rng)
					}
					for c := range 8 {
						if rng.Intn(4) == 0 {
							s[c*stride+k+c] = math.Copysign(math.Inf(1), leafValue(rng))
						}
					}
					var acc [64]float64
					for i := range acc[:8*l] {
						acc[i] = leafValue(rng)
					}
					want, wantV := acc, append([]float64(nil), v...)
					scalarLeaf(l, fin, wantV, s, stride, k, want[:])
					leaf(l, fin, &v[0], &s[0], stride, k, &acc)
					name := fmt.Sprintf("trial %d (k=%d)", trial, k)
					requireSameBits(t, name+": acc", acc[:], want[:])
					requireSameBits(t, name+": v", v, wantV)
				}
			})
		}
	}
}

// BenchmarkTileLeaf runs each plain leaf over k = 256 in cache and
// reports its rate: 2·8·L flops per kk.
func BenchmarkTileLeaf(b *testing.B) {
	const k = 256
	for _, l := range tileWidths {
		b.Run(fmt.Sprintf("%d-lane", l), func(b *testing.B) {
			requireLanes(b, l)
			rng := rand.New(rand.NewSource(1))
			v, s := make([]float64, l*k), make([]float64, 8*k)
			for i := range v {
				v[i] = rng.NormFloat64()
			}
			for i := range s {
				s[i] = rng.NormFloat64()
			}
			var acc [64]float64
			for range b.N {
				leaf(l, false, &v[0], &s[0], k, k, &acc)
			}
			b.ReportMetric(float64(2*8*l*k)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}
