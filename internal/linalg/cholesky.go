package linalg

import (
	"errors"
	"fmt"
	"math"
	"slices"
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
	scalarW   = 4   // columns per inverse block and solve chunk without a tile
)

// leaf runs the register tile of l lanes (4 or 8; see tile4x8) over
// acc[:8·l], the finishing variant with fin.
func leaf(l int, fin bool, v, s *float64, stride, k int, acc *[64]float64) {
	acc4 := (*[32]float64)(acc[:32])
	switch {
	case l == 8 && fin:
		tile8x8fin(v, s, stride, k, acc)
	case l == 8:
		tile8x8(v, s, stride, k, acc)
	case fin:
		tile4x8fin(v, s, stride, k, acc4)
	default:
		tile4x8(v, s, stride, k, acc4)
	}
}

// NewCholesky factors the symmetric positive definite matrix a in place:
// only the lower triangle of a is read, and on return a holds L in its
// lower triangle and Lᵀ in its upper one, so that row i holds both L's row
// and L's column i from the diagonal on. The Cholesky shares that storage,
// so a must not be used afterwards. It returns ErrNotPositiveDefinite when
// a non-positive pivot is encountered.
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
// row-dot form — so the factor is bit-identical at every pool width and at
// every tile width (lanes), and each a[i][j] is read once, just before
// L[i][j] replaces it. A finished strip copies its columns of L into the
// rows above as Lᵀ.
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
	l := lanes
	var packs [][]float64 // per worker: its strip's rows, packed for the tile
	if l > 0 {
		packs = make([][]float64, par.Workers(strips))
	}
	// Strips are handed out in row order, so every strip a strip waits for
	// is already held by a worker or finished.
	par.ForEachWorkerQuiet(strips, func(w, s int) {
		defer close(done[s])
		lo, hi := s*cholRows, min((s+1)*cholRows, n)
		p0 := lo / cholPanel * cholPanel
		var pk []float64
		if packs != nil {
			if packs[w] == nil {
				packs[w] = make([]float64, cholRows*n)
			}
			pk = packs[w]
		}
		for q0 := 0; q0 < p0; q0 += cholPanel {
			<-done[(q0+cholPanel)/cholRows-1] // the panel's last strip
			if failed.Load() {
				return
			}
			for j := q0; j < q0+cholPanel; j += cholGroup {
				cholStrip(a, pk, l, lo, lo, hi, j)
			}
		}
		if lo > p0 {
			// Columns [p0, lo) of the diagonal panel belong to the strips
			// above, which are done once the one just above is.
			<-done[s-1]
			if failed.Load() {
				return
			}
			for j := p0; j < lo; j += cholGroup {
				cholStrip(a, pk, l, lo, lo, hi, j)
			}
		}
		// The strip's own columns, a group at a time: the group's 8×8
		// diagonal block row by row, then the strip's rows below it.
		for g := lo; g < hi; g += cholGroup {
			end := min(g+cholGroup, hi)
			k0 := 0 // the sums of the block's entries cover k < k0
			if l > 0 && end-g == cholGroup {
				cholBlock(a, pk[(g-lo)*n:], l, g)
				k0 = g
			}
			for i := g; i < end; i++ {
				ri := a.Row(i)
				for j := g; j < i; j++ {
					cholFinish(ri, a.Row(j), k0, j)
				}
				d := ri[i]
				for _, v := range ri[:i] {
					d -= v * v
				}
				if d <= 0 || math.IsNaN(d) {
					failed.Store(true)
					return
				}
				ri[i] = math.Sqrt(d)
			}
			cholStrip(a, pk, l, lo, end, hi, g)
		}
		// Every strip above is done, and no strip reads an upper triangle.
		for j := 0; j < hi; j++ {
			rj := a.Row(j)
			for i := max(lo, j+1); i < hi; i++ {
				rj[i] = a.data[i*n+j]
			}
		}
	})
	if failed.Load() {
		return nil, ErrNotPositiveDefinite
	}
	return &Cholesky{l: a}, nil
}

// cholStrip computes L[i][j…j+cholGroup−1] for rows i0…hi−1 of the strip
// starting at row lo, where rows j…j+cholGroup−1 and rows i0…hi−1 left of
// j already hold L. Without a tile (l = 0) it runs cholRow on each row.
// With one, each full lane group of l rows makes one call to the
// finishing leaf over k < j against the group's 8 rows, with its own rows
// read from pk: l·n floats per lane group, from row lo on, holding
// L[i+r][k] at l·k+r. The leaf finishes the group's triangle and
// divisions and appends the group's columns to pk, so the driver only
// copies the finished lanes into the rows. Rows past the last full lane
// group run cholRow.
func cholStrip(a *Matrix, pk []float64, l, lo, i0, hi, j int) {
	i := i0
	if l > 0 {
		n := a.cols
		for ; i+l <= hi; i += l {
			var acc [64]float64
			for r := range l {
				for c, v := range a.Row(i + r)[j : j+cholGroup] {
					acc[c*l+r] = v
				}
			}
			leaf(l, true, &pk[(i-lo)*n], &a.data[j*n], n, j, &acc)
			for r := range l {
				ri := a.Row(i + r)[j : j+cholGroup]
				for c := range ri {
					ri[c] = acc[c*l+r]
				}
			}
		}
	}
	for ; i < hi; i++ {
		cholRow(a, i, j, j+cholGroup)
	}
}

// cholBlock runs the plain leaf of l lanes over k < g for the lower
// triangle of the 8×8 diagonal block whose rows g…g+7 hold L left of g:
// the block's lane groups, read from pk, against those same 8 rows. Lanes
// on or above the diagonal are dropped.
func cholBlock(a *Matrix, pk []float64, l, g int) {
	n := a.cols
	for q := 0; q < cholGroup; q += l {
		var acc [64]float64
		for r := range l {
			for c, v := range a.Row(g + q + r)[g : g+q+r] {
				acc[c*l+r] = v
			}
		}
		leaf(l, false, &pk[q*n], &a.data[g*n], n, g, &acc)
		for r := range l {
			ri := a.Row(g + q + r)[g : g+q+r]
			for c := range ri {
				ri[c] = acc[c*l+r]
			}
		}
	}
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
	return c.SolveMany([][]float64{b})[0]
}

// SolveMany solves A·X = B for the columns bs of B, returning X's columns.
// One forward and one backward pass over the factor serve every column,
// and each column's entries keep the operations of Solve's substitutions,
// so column r of the result is bit-identical to Solve(bs[r]).
func (c *Cholesky) SolveMany(bs [][]float64) [][]float64 {
	n, m := c.l.Rows(), len(bs)
	l := lanes
	cw := max(l, scalarW)
	x := make([]float64, n*m)
	for r, b := range bs {
		if len(b) != n {
			panic(fmt.Sprintf("linalg: SolveMany length mismatch %d vs %d", len(b), n))
		}
		xc, w, p := chunk(x, n, m, cw, r)
		for i, v := range b {
			xc[i*w+p] = v
		}
	}
	c.forward(x, m, cw, l)
	c.backward(x, m, cw)
	out := make([][]float64, m)
	for r := range out {
		xc, w, p := chunk(x, n, m, cw, r)
		col := make([]float64, n)
		for i := range col {
			col[i] = xc[i*w+p]
		}
		out[r] = col
	}
	return out
}

// chunk returns the chunk of x holding column r of an n×m block, its width
// w and r's place p in it. Columns are stored cw to a chunk, each chunk
// row by row: column r's entry i is at chunk[i·w + p]. The last chunk may
// be narrower.
func chunk(x []float64, n, m, cw, r int) ([]float64, int, int) {
	r0 := r / cw * cw
	w := min(cw, m-r0)
	return x[r0*n : (r0+w)*n], w, r - r0
}

// SolveLower solves L·y = b by forward substitution.
func (c *Cholesky) SolveLower(b []float64) []float64 {
	if n := c.l.Rows(); len(b) != n {
		panic(fmt.Sprintf("linalg: SolveLower length mismatch %d vs %d", len(b), n))
	}
	y := slices.Clone(b)
	c.forward(y, 1, 1, 0)
	return y
}

// SolveUpper solves Lᵀ·x = y by back substitution.
func (c *Cholesky) SolveUpper(y []float64) []float64 {
	if n := c.l.Rows(); len(y) != n {
		panic(fmt.Sprintf("linalg: SolveUpper length mismatch %d vs %d", len(y), n))
	}
	x := slices.Clone(y)
	c.backward(x, 1, 1)
	return x
}

// forward overwrites the m columns chunked cw wide in y (see chunk) with
// the solution of L·Y = B: each entry subtracts L[i][k]·y[k] for
// k = 0…i−1 in ascending order and is divided by L[i][i]. With a tile of
// l lanes, rows go 8 at a time, and each chunk of l columns makes one call
// to the finishing leaf: the columns are its lanes, the solved rows its
// stream, and the 8 rows of L its triangle. Other chunks, and the rows
// past the last 8, go row by row.
func (c *Cholesky) forward(y []float64, m, cw, l int) {
	n := c.l.Rows()
	i := 0
	for ; l > 0 && i+8 <= n; i += 8 {
		for r, w := 0, 0; r < m; r += w {
			var yc []float64
			yc, w, _ = chunk(y, n, m, cw, r)
			if w != l {
				c.forwardRows(yc, w, i, i+8)
				continue
			}
			var acc [64]float64
			copy(acc[:], yc[i*l:(i+8)*l])
			leaf(l, true, &yc[0], &c.l.data[i*n], n, i, &acc)
		}
	}
	for r, w := 0, 0; r < m; r += w {
		var yc []float64
		yc, w, _ = chunk(y, n, m, cw, r)
		c.forwardRows(yc, w, i, n)
	}
}

// forwardRows runs forward's substitution for rows i0…i1−1 of one chunk
// of w columns, row by row.
func (c *Cholesky) forwardRows(yc []float64, w, i0, i1 int) {
	for i := i0; i < i1; i++ {
		row := c.l.Row(i)
		yi := yc[i*w : (i+1)*w]
		subDots(yi, row[:i], yc, w)
		for j := range yi {
			yi[j] /= row[i]
		}
	}
}

// backward overwrites the m columns chunked cw wide in x with the solution
// of Lᵀ·X = Y, from the last row up: each entry subtracts Lᵀ[i][k]·x[k]
// for k = i+1…n−1 in ascending order, reading row i's upper triangle, and
// is divided by L[i][i].
func (c *Cholesky) backward(x []float64, m, cw int) {
	n := c.l.Rows()
	for i := n - 1; i >= 0; i-- {
		row := c.l.Row(i)
		for r, w := 0, 0; r < m; r += w {
			var xc []float64
			xc, w, _ = chunk(x, n, m, cw, r)
			xi := xc[i*w : (i+1)*w]
			subDots(xi, row[i+1:], xc[(i+1)*w:], w)
			for j := range xi {
				xi[j] /= row[i]
			}
		}
	}
}

// subDots subtracts l[k]·x[k·w+j] from s[j] for k = 0…len(l)−1 in
// ascending order, for each of the chunk's w = len(s) columns.
func subDots(s, l, x []float64, w int) {
	switch w {
	case 4:
		s0, s1, s2, s3 := s[0], s[1], s[2], s[3]
		for k, v := range l {
			xk := x[4*k : 4*k+4]
			s0 -= v * xk[0]
			s1 -= v * xk[1]
			s2 -= v * xk[2]
			s3 -= v * xk[3]
		}
		s[0], s[1], s[2], s[3] = s0, s1, s2, s3
		return
	case 8:
		s0, s1, s2, s3, s4, s5, s6, s7 := s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]
		for k, v := range l {
			xk := x[8*k : 8*k+8]
			s0 -= v * xk[0]
			s1 -= v * xk[1]
			s2 -= v * xk[2]
			s3 -= v * xk[3]
			s4 -= v * xk[4]
			s5 -= v * xk[5]
			s6 -= v * xk[6]
			s7 -= v * xk[7]
		}
		s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7] = s0, s1, s2, s3, s4, s5, s6, s7
		return
	}
	for j := range s {
		sj := s[j]
		for k, v := range l {
			sj -= v * x[k*w+j]
		}
		s[j] = sj
	}
}

// InverseDiagonal returns the diagonal of A⁻¹ in O(n³/6) by inverting the
// triangular factor: (A⁻¹)ⱼⱼ = Σᵢ (L⁻¹)ᵢⱼ². It is the workhorse of the
// exact LS-SVM leave-one-out computation.
//
// Column j of M = L⁻¹ depends on L alone, so blocks of columns — as many
// as the tile has lanes, or scalarW without one — go to the worker pool,
// largest (leftmost) first, and each is built in per-worker scratch of
// one row per row of L: one contiguous pass over row i of L serves every
// column of the block, and with a tile the finishing leaf serves 8 rows
// at a time. Each M[i][j] keeps the k order of forward substitution and
// each diag[j] sums its squares in ascending i, so the result is
// bit-identical at every pool width and at every tile width.
func (c *Cholesky) InverseDiagonal() []float64 {
	n := c.l.Rows()
	diag := make([]float64, n)
	l := lanes
	bw := max(l, scalarW)
	blocks := (n + bw - 1) / bw
	scratch := make([][]float64, par.Workers(blocks))
	par.ForEachWorkerQuiet(blocks, func(w, b int) {
		j0 := b * bw
		if j0+bw > n {
			m := make([]float64, n)
			for j := j0; j < n; j++ {
				c.invColumn(j, m, diag)
			}
			return
		}
		if scratch[w] == nil {
			scratch[w] = make([]float64, bw*n)
		}
		c.invColumns(j0, bw, scratch[w], diag, l > 0)
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

// invColumns is invColumn for the w columns j0…j0+w−1 at once. It holds
// the block negated, V = −M, k-major with row stride w:
// v[k·w+c] = −M[k][j0+c]. Each sum s of invColumn is then updated as
// s −= L[i][k]·V[k][c], which is s + L[i][k]·M[k][c] bit for bit
// (x − y is x + (−y), and negation commutes with rounding), and
// V[i][c] = s/L[i][i] is exactly −(−s/L[i][i]). Column j0+c starts its
// sums at k = j0+c; from k = j0+w−1 on all w share each load of L[i][k].
// With tile, w is the tile's width and rows go 8 at a time through the
// finishing leaf, with the w columns as lanes and the 8 rows of L as
// streams: it runs the k the 8 rows share, [j0+w−1, i), then each row's
// terms in [i, i+x) and its division, in row order, and stores V's 8 rows.
// The remaining rows, and every row without tile, go one row at a time.
// diag sums V², which is M².
func (c *Cholesky) invColumns(j0, w int, v, diag []float64, tile bool) {
	n := c.l.Rows()
	for i := j0; i < j0+w; i++ {
		ri := c.l.Row(i)
		for col := 0; col < i-j0; col++ {
			var s float64
			for k := j0 + col; k < i; k++ {
				s -= ri[k] * v[k*w+col]
			}
			v[i*w+col] = s / ri[i]
		}
		v[i*w+i-j0] = -1 / ri[i]
	}
	k0 := j0 + w - 1 // the first k all w columns share
	i := j0 + w
	for ; tile && i+8 <= n; i += 8 {
		var acc [64]float64
		for x := range 8 {
			invHead(c.l.Row(i+x), v, j0, w, acc[x*w:(x+1)*w])
		}
		leaf(w, true, &v[k0*w], &c.l.data[i*n+k0], n, i-k0, &acc)
	}
	for ; i < n; i++ {
		var s [8]float64
		ri := c.l.Row(i)
		invHead(ri, v, j0, w, s[:w])
		invFinish(ri, v, w, k0, i, s[:w])
	}
	for col := range w {
		var s float64
		for k := j0 + col; k < n; k++ {
			x := v[k*w+col]
			s += x * x
		}
		diag[j0+col] = s
	}
}

// invHead starts the sums s of row ri from zero with the terms
// k < j0+w−1 in which not all of the block's w columns take part: column
// c from k = j0+c.
func invHead(ri, v []float64, j0, w int, s []float64) {
	for k := j0; k < j0+w-1; k++ {
		x := ri[k]
		for c, h := range v[k*w : k*w+k-j0+1] {
			s[c] -= x * h
		}
	}
}

// invFinish adds row i's terms k0…i−1 to its sums s over the block's w
// columns, in ascending k, and stores V[i] = s/L[i][i].
func invFinish(ri, v []float64, w, k0, i int, s []float64) {
	d := ri[i]
	if w == 4 {
		s0, s1, s2, s3 := s[0], s[1], s[2], s[3]
		vs, j := v[k0*4:i*4], 0
		for _, x := range ri[k0:i] {
			vk := vs[j : j+4 : j+4]
			s0 -= x * vk[0]
			s1 -= x * vk[1]
			s2 -= x * vk[2]
			s3 -= x * vk[3]
			j += 4
		}
		vi := v[i*4 : i*4+4]
		vi[0], vi[1], vi[2], vi[3] = s0/d, s1/d, s2/d, s3/d
		return
	}
	for c, sc := range s {
		for k, x := range ri[k0:i] {
			sc -= x * v[(k0+k)*w+c]
		}
		v[i*w+c] = sc / d
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
