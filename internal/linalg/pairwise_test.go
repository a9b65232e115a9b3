package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"metaopt/internal/par"
)

// randomCols draws n examples of d awkward features (leafValue) as columns,
// and returns the equivalent rows too.
func randomCols(rng *rand.Rand, n, d int) (cols, rows [][]float64) {
	cols = make([][]float64, d)
	for f := range cols {
		cols[f] = make([]float64, n)
		for i := range cols[f] {
			cols[f][i] = leafValue(rng)
		}
	}
	rows = make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, d)
		for f := range cols {
			rows[i][f] = cols[f][i]
		}
	}
	return cols, rows
}

// distWidths are the tile widths that run SqDistLowerInto's and RBFExp's
// leaves: the 8-lane tile runs the same AVX leaves as the 4-lane one.
var distWidths = []int{4}

// TestPairwiseMatchesSqDist pins SqDistLowerInto, on both its code paths
// and at pool widths 1 and 3, entry by entry to per-pair SqDist over the
// equivalent rows, bit for bit, on shapes that cut the 4×8 tiles and the
// strips; the diagonal must be zero and the upper triangle untouched.
func TestPairwiseMatchesSqDist(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	forEachLeaf(t, distWidths, func(t *testing.T) {
		for _, w := range []int{1, 3} {
			restore := par.SetLimit(w)
			for _, n := range []int{1, 3, 4, 7, 8, 9, 31, 33, 257} {
				for _, d := range []int{1, 2, 5, 11, 38} {
					cols, rows := randomCols(rng, n, d)
					stale := make([]float64, n*n)
					for i := range stale {
						stale[i] = -1
					}
					dist := SqDistLowerInto(cols, n, stale)
					for i := range n {
						for j := range n {
							want := -1.0
							switch {
							case j < i:
								want = SqDist(rows[i], rows[j])
							case j == i:
								want = 0
							}
							if got := dist[i*n+j]; math.Float64bits(got) != math.Float64bits(want) {
								t.Fatalf("width %d n=%d d=%d: dist[%d][%d] = %v, want %v", w, n, d, i, j, got, want)
							}
						}
					}
				}
			}
			restore()
		}
	})
}

// TestMirrorLower pins the mirrored matrix to its lower triangle.
func TestMirrorLower(t *testing.T) {
	const n = 37
	a := make([]float64, n*n)
	for i := range a {
		a[i] = float64(i)
	}
	NewMatrixData(n, n, a).MirrorLower()
	for i := range n {
		for j := range n {
			if want := float64(max(i, j)*n + min(i, j)); a[i*n+j] != want {
				t.Fatalf("a[%d][%d] = %v, want %v", i, j, a[i*n+j], want)
			}
		}
	}
}

// expArgument draws a value of x for math.Exp(−x/denom): random bit
// patterns, signed zeros, NaN and ±Inf, subnormals, distances a kernel
// sees, and values whose arguments land at the leaf's bounds and on
// subnormal or overflowing results.
func expArgument(rng *rand.Rand) float64 {
	switch rng.Intn(16) {
	case 0:
		return math.Float64frombits(rng.Uint64())
	case 1:
		return []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
			math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64}[rng.Intn(8)]
	case 2:
		return math.SmallestNonzeroFloat64 * float64(rng.Intn(1<<20)) * float64(1-2*rng.Intn(2))
	case 3:
		return 700 + 46*rng.Float64()
	case 4:
		return -700 - 10*rng.Float64()
	case 5:
		return []float64{708, -709, 745.1332191019411, -709.782712893384}[rng.Intn(4)] * (1 + 1e-15*rng.NormFloat64())
	case 6, 7:
		return 1500 * (rng.Float64() - 0.5)
	default:
		return 40 * rng.Float64()
	}
}

// expDenoms are the denominators the exp tests divide by: a kernel's
// 2σ², negative ones, tiny ones that send every argument out of range,
// huge ones that squeeze them to zero, and the degenerate 0 and ±Inf.
var expDenoms = []float64{1, -1, 2.5, 0.37, -3.2, 1e-300, 5e-324, 1e300, -1e300, 0, math.Inf(1), math.Inf(-1)}

// requireExpRows runs RBFExp over xs in rows of lengths 0 to 9 and fails
// unless every entry equals math.Exp(−x/denom) bit for bit.
func requireExpRows(t *testing.T, rng *rand.Rand, xs []float64, denom float64) {
	t.Helper()
	got := append([]float64(nil), xs...)
	for j := 0; j < len(got); {
		end := min(j+rng.Intn(10), len(got))
		RBFExp(got[j:end], denom)
		j = end
	}
	for i, x := range xs {
		want := math.Exp(-x / denom)
		if math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("denom %v: exp(-%v/denom) = %v (%#x), math.Exp %v (%#x)",
				denom, x, got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
		}
	}
}

// TestRBFExpMatchesMathExp pins RBFExp, on both its code paths, to math.Exp
// bit for bit over rows of every length up to 9, so the leaf's tails and
// its bail-outs in mid-row are covered: random bit patterns, specials and
// subnormals, every denominator of expDenoms, and arguments swept densely
// over [−746, −700] and [700, 710] — subnormal results, the leaf's
// bounds, and overflow.
func TestRBFExpMatchesMathExp(t *testing.T) {
	forEachLeaf(t, distWidths, func(t *testing.T) {
		if lanes > 0 && !useExp {
			t.Log("math.Exp is off its FMA path or the CPU lacks AVX2/FMA: RBFExp runs math.Exp")
		}
		rng := rand.New(rand.NewSource(21))
		xs := make([]float64, 1<<19)
		for _, denom := range expDenoms {
			for i := range xs {
				xs[i] = expArgument(rng)
			}
			requireExpRows(t, rng, xs, denom)
		}
		// Arguments −x/1 and −x/−1 are exact: sweep them.
		var sweep []float64
		for _, r := range [][2]float64{{-746, -700}, {700, 710}} {
			for a := r[0]; a <= r[1]; a += 0x1p-12 {
				sweep = append(sweep, a, math.Nextafter(a, math.Inf(1)))
			}
		}
		for _, b := range []float64{-708, 709} {
			a := b
			for range 64 {
				a = math.Nextafter(a, math.Inf(-1))
			}
			for range 129 {
				sweep = append(sweep, a)
				a = math.Nextafter(a, math.Inf(1))
			}
		}
		requireExpRows(t, rng, sweep, -1)
		for i := range sweep {
			sweep[i] = -sweep[i]
		}
		requireExpRows(t, rng, sweep, 1)
	})
}

func BenchmarkSqDistLower(b *testing.B) {
	for _, n := range []int{1500, 3153} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			cols := make([][]float64, 11)
			for f := range cols {
				cols[f] = make([]float64, n)
				for i := range cols[f] {
					cols[f][i] = rng.NormFloat64()
				}
			}
			out := make([]float64, n*n)
			for range b.N {
				SqDistLowerInto(cols, n, out)
			}
		})
	}
}

func BenchmarkRBFExp(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, 1<<20)
	for i := range x {
		x[i] = 40 * rng.Float64()
	}
	row := make([]float64, len(x))
	for range b.N {
		copy(row, x)
		RBFExp(row, 2.5)
	}
}
