package ml

import "fmt"

// Columns is an optional column-major backing for a Dataset: every feature
// is a set of contiguous float64 slabs (one per chunk), so per-feature scans
// — normalization fitting, additive distance construction, greedy feature
// projection — run as sequential loads instead of chasing one slice header
// per example. The slabs may alias a memory-mapped dataset file
// (internal/colstore), in which case they are read-only and valid only
// until the mapping is closed.
//
// Chunking mirrors the on-disk layout of the columnar store: an append-only
// writer seals a chunk every few thousand rows, so a column is contiguous
// within a chunk but not across chunks. Blocked kernels iterate chunks in
// order, which visits examples in exactly the order a row-major
// `for _, e := range d.Examples` loop does — the property every
// bit-identity argument below rests on.
type Columns struct {
	N   int // total rows across chunks
	Dim int // features per row

	// Labels holds every example's label in row order. Unlike the feature
	// slabs it is always materialized on the heap (it is n ints, tiny next
	// to n×dim floats), so label scans never fault mapped pages.
	Labels []int

	chunks []ColChunk
}

// ColChunk is one contiguous run of rows.
type ColChunk struct {
	Start int         // global row index of the chunk's first row
	Rows  int         // rows in this chunk
	Feats [][]float64 // Feats[j] is feature j's column, len Rows
}

// NewColumns assembles a backing from sealed chunks. Labels must have
// exactly as many entries as the chunks have rows.
func NewColumns(dim int, labels []int, chunks []ColChunk) (*Columns, error) {
	n := 0
	for i := range chunks {
		ch := &chunks[i]
		if ch.Start != n {
			return nil, fmt.Errorf("ml: chunk %d starts at row %d, want %d", i, ch.Start, n)
		}
		if len(ch.Feats) != dim {
			return nil, fmt.Errorf("ml: chunk %d has %d feature columns, want %d", i, len(ch.Feats), dim)
		}
		for j, col := range ch.Feats {
			if len(col) != ch.Rows {
				return nil, fmt.Errorf("ml: chunk %d feature %d has %d rows, want %d", i, j, len(col), ch.Rows)
			}
		}
		n += ch.Rows
	}
	if len(labels) != n {
		return nil, fmt.Errorf("ml: %d labels for %d rows", len(labels), n)
	}
	return &Columns{N: n, Dim: dim, Labels: labels, chunks: chunks}, nil
}

// NumChunks returns how many contiguous runs back the columns.
func (c *Columns) NumChunks() int { return len(c.chunks) }

// Chunk returns the i-th run.
func (c *Columns) Chunk(i int) *ColChunk { return &c.chunks[i] }

// Feature gathers feature j's full column into dst (grown when too small)
// and returns it. The copy is one sequential pass per chunk.
func (c *Columns) Feature(j int, dst []float64) []float64 {
	if cap(dst) < c.N {
		dst = make([]float64, c.N)
	} else {
		dst = dst[:c.N]
	}
	for i := range c.chunks {
		ch := &c.chunks[i]
		copy(dst[ch.Start:ch.Start+ch.Rows], ch.Feats[j])
	}
	return dst
}

// At returns the value of feature j at global row i. It is O(#chunks) and
// meant for spot checks, not hot loops — blocked kernels iterate chunks.
func (c *Columns) At(i, j int) float64 {
	for k := range c.chunks {
		ch := &c.chunks[k]
		if i < ch.Start+ch.Rows {
			return ch.Feats[j][i-ch.Start]
		}
	}
	panic(fmt.Sprintf("ml: row %d out of %d", i, c.N))
}

// Project returns a backing over the feature subset idx, in idx order. The
// projected chunks share the parent's column slabs — no floats move.
func (c *Columns) Project(idx []int) *Columns {
	chunks := make([]ColChunk, len(c.chunks))
	for i := range c.chunks {
		ch := &c.chunks[i]
		feats := make([][]float64, len(idx))
		for k, j := range idx {
			feats[k] = ch.Feats[j]
		}
		chunks[i] = ColChunk{Start: ch.Start, Rows: ch.Rows, Feats: feats}
	}
	return &Columns{N: c.N, Dim: len(idx), Labels: c.Labels, chunks: chunks}
}

// Columns returns the dataset's features column-major: the attached
// backing when UsableCols accepts it, otherwise a one-chunk backing copied
// from the rows. A copied backing is not attached, so a dataset that
// goroutines share is never written. Every near-neighbor and kernel-machine
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
	return &Columns{
		N: n, Dim: dim, Labels: labels,
		chunks: []ColChunk{{Start: 0, Rows: n, Feats: feats}},
	}
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
	for ci := range cols.chunks {
		ch := &cols.chunks[ci]
		s, e := max(lo, ch.Start), min(hi, ch.Start+ch.Rows)
		if s >= e {
			continue
		}
		col := ch.Feats[j]
		for r := s; r < e; r++ {
			dst[r-lo] = (squash(col[r-ch.Start]) - mn) * sc
		}
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

// Dim returns the feature dimensionality: the row width when rows are
// materialized, the column count in column-only (out-of-core) datasets.
func (d *Dataset) Dim() int {
	if len(d.Examples) > 0 && d.Examples[0].Features != nil {
		return len(d.Examples[0].Features)
	}
	if d.Cols != nil {
		return d.Cols.Dim
	}
	return 0
}

// ValidateRows is Validate for consumers of feature rows — every trainer's
// Train, the tree fold session — and refuses a column-only dataset.
func (d *Dataset) ValidateRows() error {
	if err := d.Validate(); err != nil {
		return err
	}
	if !d.HasRows() {
		return fmt.Errorf("ml: training needs materialized feature rows; column-only datasets support NN and kernel-machine LOOCV and NN selection")
	}
	return nil
}

// HasRows reports whether per-example feature rows are materialized.
// Column-only datasets (opened for out-of-core work) answer false; paths
// that need row vectors — Train, the fold-based LOOCV fallback — must
// refuse them with a clear error instead of indexing nil slices.
func (d *Dataset) HasRows() bool {
	return d.Len() > 0 && d.Examples[0].Features != nil
}
