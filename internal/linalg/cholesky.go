package linalg

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"metaopt/internal/par"
)

// ErrNotPositiveDefinite reports that a Cholesky factorization failed because
// the input matrix is not (numerically) symmetric positive definite.
var ErrNotPositiveDefinite = errors.New("linalg: matrix is not positive definite")

// Cholesky holds the lower-triangular factor L of a symmetric positive
// definite matrix A = L·Lᵀ.
type Cholesky struct {
	l *Matrix
}

// The kernels' blocking. It decides how the work is cut, never what any
// entry evaluates to, so it is fixed rather than tuned per call.
const (
	cholPanel = 128 // columns per left-looking panel of NewCholesky
	cholRows  = 32  // rows per NewCholesky work item; divides cholPanel
	cholGroup = 8   // columns a row accumulates at once within a panel
	invBlock  = 4   // columns of L⁻¹ per InverseDiagonal work item
)

// NewCholesky factors the symmetric positive definite matrix a in place:
// only the lower triangle of a is read, and on return a holds L with its
// upper triangle zeroed. The Cholesky shares that storage, so a must not
// be used afterwards. It returns ErrNotPositiveDefinite when a
// non-positive pivot is encountered.
//
// The factorization is left-looking over panels of cholPanel columns, and
// its work items are strips of cholRows rows, handed to the worker pool in
// row order in a single pass. A strip fills its columns panel by panel,
// each panel as soon as that panel's rows are finished, then its part of
// its own panel's diagonal block once the strip above it is finished. No
// strip waits for the whole matrix between panels, so a worker that is
// held up delays only the strips that need its rows. Every L[i][j] starts
// from a[i][j], subtracts L[i][k]·L[j][k] for k = 0…j−1 in ascending order
// and is divided by the pivot L[j][j] — the operations of the textbook
// row-dot form — so the factor is bit-identical at every pool width, and
// each a[i][j] is read once, just before L[i][j] replaces it.
func NewCholesky(a *Matrix) (*Cholesky, error) {
	if a.Rows() != a.Cols() {
		return nil, fmt.Errorf("linalg: Cholesky of non-square %dx%d matrix", a.Rows(), a.Cols())
	}
	n := a.Rows()
	strips := (n + cholRows - 1) / cholRows
	done := make([]chan struct{}, strips) // closed when the strip is done or stopped
	for s := range done {
		done[s] = make(chan struct{})
	}
	var failed atomic.Bool // a bad pivot was met; strips that see it stop
	// Strips are handed out in row order, so every strip a strip waits for
	// is already held by a worker or finished.
	par.ForEachWorkerQuiet(strips, func(_, s int) {
		defer close(done[s])
		lo, hi := s*cholRows, min((s+1)*cholRows, n)
		p0 := lo / cholPanel * cholPanel
		for q0 := 0; q0 < p0; q0 += cholPanel {
			<-done[(q0+cholPanel)/cholRows-1] // the panel's last strip
			if failed.Load() {
				return
			}
			for j := q0; j < q0+cholPanel; j += cholGroup {
				for i := lo; i < hi; i++ {
					cholRow(a, i, j, j+cholGroup)
				}
			}
		}
		if lo > p0 {
			<-done[s-1]
			if failed.Load() {
				return
			}
		}
		for i := lo; i < hi; i++ {
			cholRow(a, i, p0, i)
			row := a.Row(i)
			d := row[i]
			for _, v := range row[:i] {
				d -= v * v
			}
			if d <= 0 || math.IsNaN(d) {
				failed.Store(true)
				return
			}
			row[i] = math.Sqrt(d)
			clear(row[i+1:])
		}
	})
	if failed.Load() {
		return nil, ErrNotPositiveDefinite
	}
	return &Cholesky{l: a}, nil
}

// cholRow computes L[i][j] for j0 ≤ j < j1 ≤ i in l, where rows j0…j1−1
// and row i left of j0 already hold L. Columns are taken cholGroup at a
// time: one load of L[i][k] feeds the group's accumulators over the k < j
// all of them share, then each column adds its own k in the group in
// order.
func cholRow(l *Matrix, i, j0, j1 int) {
	ri := l.Row(i)
	j := j0
	for ; j+cholGroup <= j1; j += cholGroup {
		x := ri[:j]
		r0, r1, r2, r3 := l.Row(j)[:len(x)], l.Row(j + 1)[:len(x)], l.Row(j + 2)[:len(x)], l.Row(j + 3)[:len(x)]
		r4, r5, r6, r7 := l.Row(j + 4)[:len(x)], l.Row(j + 5)[:len(x)], l.Row(j + 6)[:len(x)], l.Row(j + 7)[:len(x)]
		s := ri[j : j+cholGroup : j+cholGroup]
		s0, s1, s2, s3, s4, s5, s6, s7 := s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]
		for k, v := range x {
			s0 -= v * r0[k]
			s1 -= v * r1[k]
			s2 -= v * r2[k]
			s3 -= v * r3[k]
			s4 -= v * r4[k]
			s5 -= v * r5[k]
			s6 -= v * r6[k]
			s7 -= v * r7[k]
		}
		s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7] = s0, s1, s2, s3, s4, s5, s6, s7
		for c := j; c < j+cholGroup; c++ {
			cholFinish(ri, l.Row(c), j, c)
		}
	}
	for ; j < j1; j++ {
		cholFinish(ri, l.Row(j), 0, j)
	}
}

// cholFinish completes L[i][j] = ri[j], whose sum already covers k < k0,
// with the terms k0…j−1 and the division by the pivot rj[j].
func cholFinish(ri, rj []float64, k0, j int) {
	s := ri[j]
	for k := k0; k < j; k++ {
		s -= ri[k] * rj[k]
	}
	ri[j] = s / rj[j]
}

// Solve solves A·x = b given the factorization of A, returning x.
func (c *Cholesky) Solve(b []float64) []float64 {
	y := c.SolveLower(b)
	return c.SolveUpper(y)
}

// SolveLower solves L·y = b by forward substitution.
func (c *Cholesky) SolveLower(b []float64) []float64 {
	n := c.l.Rows()
	if len(b) != n {
		panic(fmt.Sprintf("linalg: SolveLower length mismatch %d vs %d", len(b), n))
	}
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		row := c.l.Row(i)
		s := b[i]
		for k := 0; k < i; k++ {
			s -= row[k] * y[k]
		}
		y[i] = s / row[i]
	}
	return y
}

// SolveUpper solves Lᵀ·x = y by back substitution.
func (c *Cholesky) SolveUpper(y []float64) []float64 {
	n := c.l.Rows()
	if len(y) != n {
		panic(fmt.Sprintf("linalg: SolveUpper length mismatch %d vs %d", len(y), n))
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= c.l.At(k, i) * x[k]
		}
		x[i] = s / c.l.At(i, i)
	}
	return x
}

// InverseDiagonal returns the diagonal of A⁻¹ in O(n³/6) by inverting the
// triangular factor: (A⁻¹)ⱼⱼ = Σᵢ (L⁻¹)ᵢⱼ². It is the workhorse of the
// exact LS-SVM leave-one-out computation.
//
// Column j of M = L⁻¹ depends on L alone, so blocks of invBlock columns go
// to the worker pool, largest (leftmost) first, and each is built in
// per-worker scratch of invBlock·n floats: one contiguous pass over row i
// of L serves every column of the block. Each M[i][j] keeps the k order of
// forward substitution and each diag[j] sums its squares in ascending i,
// so the result is bit-identical at every pool width.
func (c *Cholesky) InverseDiagonal() []float64 {
	n := c.l.Rows()
	diag := make([]float64, n)
	blocks := (n + invBlock - 1) / invBlock
	scratch := make([][]float64, par.Workers(blocks))
	par.ForEachWorkerQuiet(blocks, func(w, b int) {
		if scratch[w] == nil {
			scratch[w] = make([]float64, invBlock*n)
		}
		j0 := b * invBlock
		if j0+invBlock > n {
			for j := j0; j < n; j++ {
				c.invColumn(j, scratch[w][:n], diag)
			}
			return
		}
		c.invColumns(j0, scratch[w], diag)
	})
	return diag
}

// invColumn computes column j of M = L⁻¹ into m (indexed by row) and
// diag[j] = Σᵢ M[i][j]².
func (c *Cholesky) invColumn(j int, m, diag []float64) {
	n := c.l.Rows()
	m[j] = 1 / c.l.At(j, j)
	for i := j + 1; i < n; i++ {
		ri := c.l.Row(i)
		var s float64
		for k := j; k < i; k++ {
			s += ri[k] * m[k]
		}
		m[i] = -s / ri[i]
	}
	diag[j] = sumSq(m[j:])
}

// invColumns is invColumn for the invBlock columns j0…j0+3 at once, into
// the four n-float slices of m. Column j0+c starts its sums at k = j0+c;
// from k = j0+3 on all four share each load of L[i][k].
func (c *Cholesky) invColumns(j0 int, m, diag []float64) {
	n := c.l.Rows()
	ms := [invBlock][]float64{m[:n], m[n : 2*n], m[2*n : 3*n], m[3*n : 4*n]}
	for i := j0; i < j0+invBlock; i++ {
		ri := c.l.Row(i)
		for col := j0; col < i; col++ {
			mc := ms[col-j0]
			var s float64
			for k := col; k < i; k++ {
				s += ri[k] * mc[k]
			}
			mc[i] = -s / ri[i]
		}
		ms[i-j0][i] = 1 / ri[i]
	}
	m0, m1, m2, m3 := ms[0], ms[1], ms[2], ms[3]
	for i := j0 + invBlock; i < n; i++ {
		ri := c.l.Row(i)
		var s0, s1, s2, s3 float64
		s0 += ri[j0] * m0[j0]
		s0 += ri[j0+1] * m0[j0+1]
		s1 += ri[j0+1] * m1[j0+1]
		s0 += ri[j0+2] * m0[j0+2]
		s1 += ri[j0+2] * m1[j0+2]
		s2 += ri[j0+2] * m2[j0+2]
		x := ri[j0+3 : i]
		y0, y1, y2, y3 := m0[j0+3:][:len(x)], m1[j0+3:][:len(x)], m2[j0+3:][:len(x)], m3[j0+3:][:len(x)]
		for k, v := range x {
			s0 += v * y0[k]
			s1 += v * y1[k]
			s2 += v * y2[k]
			s3 += v * y3[k]
		}
		d := ri[i]
		m0[i], m1[i], m2[i], m3[i] = -s0/d, -s1/d, -s2/d, -s3/d
	}
	for col, mc := range ms {
		diag[j0+col] = sumSq(mc[j0+col:])
	}
}

// sumSq returns Σ v² over v in ascending order.
func sumSq(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return s
}
