package ml

// Columns is the column-major layout of a Dataset's features: every feature
// is one contiguous full-length slab, so per-feature scans — normalization
// fitting, additive distance construction, greedy feature projection — run
// as sequential loads instead of chasing one slice header per example.
// Columns are read-only once built; a projection shares its parent's slabs.
type Columns struct {
	N   int // rows
	Dim int // features per row

	// Labels holds every example's label in row order.
	Labels []int

	feats [][]float64 // feats[j] is feature j's column, len N
}

// Project returns a backing over the feature subset idx, in idx order. The
// projection shares the parent's column slabs — no floats move.
func (c *Columns) Project(idx []int) *Columns {
	feats := make([][]float64, len(idx))
	for k, j := range idx {
		feats[k] = c.feats[j]
	}
	return &Columns{N: c.N, Dim: len(idx), Labels: c.Labels, feats: feats}
}

// Columns returns the dataset's features column-major: the attached
// backing when UsableCols accepts it, otherwise a backing copied from the
// rows. A copied backing is not attached, so a dataset that goroutines
// share is never written. Every near-neighbor and kernel-machine
// computation reads features through it. It returns nil for an empty
// dataset.
func (d *Dataset) Columns() *Columns {
	if cols := d.UsableCols(); cols != nil {
		return cols
	}
	n, dim := d.Len(), d.Dim()
	if n == 0 {
		return nil
	}
	slab := make([]float64, n*dim)
	feats := make([][]float64, dim)
	for j := range feats {
		feats[j] = slab[j*n : (j+1)*n]
	}
	labels := make([]int, n)
	for i := range d.Examples {
		e := &d.Examples[i]
		labels[i] = e.Label
		for j, v := range e.Features {
			feats[j][i] = v
		}
	}
	return &Columns{N: n, Dim: dim, Labels: labels, feats: feats}
}

// BuildColumns attaches what Columns returns, so later passes over the
// dataset reuse one column copy. It leaves a usable backing in place.
func (d *Dataset) BuildColumns() *Columns {
	if d.UsableCols() == nil {
		d.Cols = d.Columns()
	}
	return d.Cols
}

// ApplyColumnRange normalizes feature j of rows [lo, hi) into dst, which
// must have hi−lo capacity, and returns it. Each element is computed by
// exactly the expression ApplyInto uses — including the zero fill for
// features past the fitted width — so blocked kernels that normalize one
// block at a time see the same bits as a whole-dataset normalization.
func (n *Norm) ApplyColumnRange(cols *Columns, j, lo, hi int, dst []float64) []float64 {
	dst = dst[:hi-lo]
	if j >= len(n.Min) {
		clear(dst)
		return dst
	}
	mn, sc := n.Min[j], n.Scale[j]
	for r, raw := range cols.feats[j][lo:hi] {
		dst[r] = (squash(raw) - mn) * sc
	}
	return dst
}

// UsableCols returns the dataset's column backing when it is consistent
// with the dataset's shape, nil otherwise. Readers of a backing gate on
// this (Columns does), never on Cols directly: a stale backing left by
// buffer reuse would silently serve wrong values.
func (d *Dataset) UsableCols() *Columns {
	if d.Cols != nil && d.Cols.N == d.Len() && d.Cols.Dim == d.Dim() {
		return d.Cols
	}
	return nil
}

// Dim returns the feature dimensionality: the width of the first row.
func (d *Dataset) Dim() int {
	if len(d.Examples) == 0 {
		return 0
	}
	return len(d.Examples[0].Features)
}
