package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"metaopt/internal/par"
)

// rowDotCholesky is the textbook row-dot factorization, column by column
// into a fresh L: the oracle the panel kernel must match bit for bit.
func rowDotCholesky(a *Matrix) (*Matrix, error) {
	n := a.Rows()
	l := NewMatrix(n, n)
	for j := 0; j < n; j++ {
		d := a.At(j, j)
		lrowj := l.Row(j)
		for k := 0; k < j; k++ {
			d -= lrowj[k] * lrowj[k]
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, ErrNotPositiveDefinite
		}
		d = math.Sqrt(d)
		l.Set(j, j, d)
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			lrowi := l.Row(i)
			for k := 0; k < j; k++ {
				s -= lrowi[k] * lrowj[k]
			}
			l.Set(i, j, s/d)
		}
	}
	return l, nil
}

// withUpper returns l with Lᵀ copied into its upper triangle: the buffer
// NewCholesky leaves.
func withUpper(l *Matrix) *Matrix {
	u := clone(l)
	for i := 0; i < u.Rows(); i++ {
		for j := 0; j < i; j++ {
			u.Set(j, i, u.At(i, j))
		}
	}
	return u
}

// columnInverseDiagonal builds M = L⁻¹ column by column, walking M's
// columns, and sums each column's squares: the oracle for InverseDiagonal.
func columnInverseDiagonal(l *Matrix) []float64 {
	n := l.Rows()
	m := NewMatrix(n, n)
	for j := 0; j < n; j++ {
		m.Set(j, j, 1/l.At(j, j))
		for i := j + 1; i < n; i++ {
			var s float64
			lrow := l.Row(i)
			for k := j; k < i; k++ {
				s += lrow[k] * m.At(k, j)
			}
			m.Set(i, j, -s/lrow[i])
		}
	}
	diag := make([]float64, n)
	for j := 0; j < n; j++ {
		var s float64
		for i := j; i < n; i++ {
			v := m.At(i, j)
			s += v * v
		}
		diag[j] = s
	}
	return diag
}

// lssvmMatrix is an LS-SVM system matrix K + I/γ: the RBF Gram matrix of n
// random points in 5 dimensions plus a ridge, SPD and conditioned like the
// systems the pipeline factors.
func lssvmMatrix(n int, seed int64) *Matrix {
	rng := rand.New(rand.NewSource(seed))
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = make([]float64, 5)
		for f := range pts[i] {
			pts[i][f] = rng.Float64()
		}
	}
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, math.Exp(-SqDist(pts[i], pts[j])/0.5))
		}
		a.Add(i, i, 1.0/50)
	}
	return a
}

// requireSameBits fails unless got and want hold the same float64 bits.
func requireSameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, oracle %v", what, i, got[i], want[i])
		}
	}
}

// cholSizes cut the 8-column groups, the 4- and 8-row lane groups, the
// 32-row strips and the 128-column panels.
func cholSizes() []int {
	sizes := []int{1, 2, 3, 5, 7, 8, 9, 12, 13, 33, 127, 128, 129, 161, 255, 257, 700}
	if testing.Short() {
		sizes = sizes[:len(sizes)-1]
	}
	return sizes
}

// TestCholeskyMatchesRowDot pins the panel factorization and the
// column-block inverse diagonal to their row-dot and column-walking
// oracles, bit for bit — L below the diagonal and Lᵀ above it — at sizes
// that cut the groups, lane groups, strips and panels, under pool widths
// 1–3, on the scalar loops and at every tile width.
func TestCholeskyMatchesRowDot(t *testing.T) {
	forEachLeaf(t, tileWidths, func(t *testing.T) {
		for _, n := range cholSizes() {
			a := lssvmMatrix(n, int64(n))
			wantL, err := rowDotCholesky(a)
			if err != nil {
				t.Fatalf("n=%d: oracle: %v", n, err)
			}
			wantDiag := columnInverseDiagonal(wantL)
			wantLU := withUpper(wantL)
			for _, w := range []int{1, 2, 3} {
				restore := par.SetLimit(w)
				work := clone(a)
				ch, err := NewCholesky(work)
				if err != nil {
					restore()
					t.Fatalf("n=%d width %d: %v", n, w, err)
				}
				name := fmt.Sprintf("n=%d width %d", n, w)
				requireSameBits(t, name+": L", work.data, wantLU.data)
				requireSameBits(t, name+": inverse diagonal", ch.InverseDiagonal(), wantDiag)
				restore()
			}
		}
	})
}

// TestSolveManyMatchesSolve pins the one-pass multi-column solve of 1, 2,
// 4, 5, 8, 9 and 13 columns (full chunks of 4 and 8, and every narrower
// last chunk) to a per-column forward and back substitution over the
// row-dot oracle's L, and Solve, SolveLower and SolveUpper to the same
// substitutions, bit for bit, at the factorization test's sizes under
// pool widths 1–3, on every code path.
func TestSolveManyMatchesSolve(t *testing.T) {
	forEachLeaf(t, tileWidths, func(t *testing.T) {
		for _, n := range cholSizes() {
			a := lssvmMatrix(n, int64(n)+1)
			l, err := rowDotCholesky(a)
			if err != nil {
				t.Fatalf("n=%d: oracle: %v", n, err)
			}
			rng := rand.New(rand.NewSource(int64(n)))
			bs := make([][]float64, 13)
			for r := range bs {
				bs[r] = make([]float64, n)
				for i := range bs[r] {
					bs[r][i] = rng.NormFloat64()
				}
			}
			for i := range bs[0] {
				bs[0][i] = 1
			}
			ys := make([][]float64, len(bs))
			xs := make([][]float64, len(bs))
			for r, b := range bs {
				ys[r] = substituteLower(l, b)
				xs[r] = substituteUpper(l, ys[r])
			}
			for _, w := range []int{1, 2, 3} {
				restore := par.SetLimit(w)
				ch, err := NewCholesky(clone(a))
				restore()
				if err != nil {
					t.Fatalf("n=%d width %d: %v", n, w, err)
				}
				for r, b := range bs[:9] {
					name := fmt.Sprintf("n=%d width %d column %d", n, w, r)
					requireSameBits(t, name+": SolveLower", ch.SolveLower(b), ys[r])
					requireSameBits(t, name+": SolveUpper", ch.SolveUpper(ys[r]), xs[r])
					requireSameBits(t, name+": Solve", ch.Solve(b), xs[r])
				}
				for _, m := range []int{1, 2, 4, 5, 8, 9, 13} {
					for r, x := range ch.SolveMany(bs[:m]) {
						requireSameBits(t, fmt.Sprintf("n=%d width %d: SolveMany of %d, column %d", n, w, m, r), x, xs[r])
					}
				}
			}
		}
	})
}

// substituteLower solves L·y = b by textbook forward substitution.
func substituteLower(l *Matrix, b []float64) []float64 {
	y := make([]float64, len(b))
	for i := range y {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= l.At(i, k) * y[k]
		}
		y[i] = s / l.At(i, i)
	}
	return y
}

// substituteUpper solves Lᵀ·x = y by back substitution down L's columns.
func substituteUpper(l *Matrix, y []float64) []float64 {
	n := len(y)
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * x[k]
		}
		x[i] = s / l.At(i, i)
	}
	return x
}

// TestCholeskyRefusesLikeRowDot places a bad pivot in the first, a middle
// and the last panel — in a panel's first strip and in later ones — and
// checks the panel kernel refuses exactly when the oracle does, and, when
// both accept, agrees with it bit for bit, on every code path.
func TestCholeskyRefusesLikeRowDot(t *testing.T) {
	const n = 300 // panels [0,128), [128,256), [256,300); strips of 32 rows
	base := lssvmMatrix(n, 3)
	forEachLeaf(t, tileWidths, func(t *testing.T) {
		for _, p := range []int{0, 1, 130, 200, n - 1} {
			for _, v := range []float64{0, -1, math.NaN(), 1e-3, 0.5, 2} {
				a := clone(base)
				a.Set(p, p, v)
				wantL, wantErr := rowDotCholesky(a)
				for _, w := range []int{1, 2, 3} {
					restore := par.SetLimit(w)
					work := clone(a)
					_, err := NewCholesky(work)
					restore()
					if err != wantErr {
						t.Fatalf("pivot %d = %v, width %d: err %v, oracle %v", p, v, w, err, wantErr)
					}
					if err == nil {
						requireSameBits(t, fmt.Sprintf("pivot %d = %v, width %d: L", p, v, w), work.data, withUpper(wantL).data)
					}
				}
			}
		}
	})
}

// benchLeaves runs bench as sub-benchmarks lanes=L/n=N at every tile
// width this host runs, the scalar loops included, and at each order.
func benchLeaves(b *testing.B, orders []int, bench func(b *testing.B, n int)) {
	for _, l := range append([]int{0}, tileWidths...) {
		if l > hostLanes {
			continue
		}
		for _, n := range orders {
			b.Run(fmt.Sprintf("lanes=%d/n=%d", l, n), func(b *testing.B) {
				defer withLeaf(l)()
				bench(b, n)
			})
		}
	}
}

func BenchmarkCholesky(b *testing.B) {
	benchLeaves(b, []int{1500, 3153}, func(b *testing.B, n int) {
		a := lssvmMatrix(n, 1)
		work := NewMatrix(n, n)
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			copy(work.data, a.data)
			b.StartTimer()
			if _, err := NewCholesky(work); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkInverseDiagonal(b *testing.B) {
	benchLeaves(b, []int{1500, 3153}, func(b *testing.B, n int) {
		ch, err := NewCholesky(lssvmMatrix(n, 1))
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ch.InverseDiagonal()
		}
	})
}

func BenchmarkSolveMany(b *testing.B) {
	benchLeaves(b, []int{1500, 3153}, func(b *testing.B, n int) {
		ch, err := NewCholesky(lssvmMatrix(n, 1))
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		bs := make([][]float64, 9)
		for r := range bs {
			bs[r] = make([]float64, n)
			for i := range bs[r] {
				bs[r][i] = rng.NormFloat64()
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ch.SolveMany(bs)
		}
	})
}
