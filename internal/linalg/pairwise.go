package linalg

import (
	"math"

	"metaopt/internal/par"
)

// distRows is the height of SqDistLowerInto's work items.
const distRows = 32

// SqDistLowerInto fills the lower triangle of out, read as an n×n
// row-major matrix, with the squared Euclidean distances between the
// examples whose features are the given columns (cols[f][i] = feature f of
// example i), sets the diagonal to zero, and returns out (grown when too
// small). The upper triangle is left as it was. Each entry starts at zero
// and adds (cᵢ−cⱼ)² one feature at a time in column order — the additions
// SqDist makes over the two examples' rows — so every entry equals SqDist
// of the equivalent rows bit for bit. The work is split into distRows-row
// strips over the worker pool, the longest rows first; at either tile
// width (lanes) each strip runs the AVX leaf sqdist4x8 over 8-row
// feature-major panels of the columns.
func SqDistLowerInto(cols [][]float64, n int, out []float64) []float64 {
	if cap(out) < n*n {
		out = make([]float64, n*n)
	} else {
		out = out[:n*n]
	}
	tile := lanes > 0 && len(cols) > 0
	var panels []float64
	if tile {
		panels = sqDistPanels(cols, n)
	}
	strips := (n + distRows - 1) / distRows
	par.ForEachWorkerQuiet(strips, func(_, s int) {
		s = strips - 1 - s
		lo, hi := s*distRows, min(n, (s+1)*distRows)
		if tile {
			sqDistTiles(cols, panels, n, lo, hi, out)
		} else {
			sqDistRows(cols, n, lo, hi, out)
		}
	})
	return out
}

// sqDistPanels packs n examples' columns into 8-row feature-major panels:
// feature f of example i sits at (i/8)·8d + 8f + i%8, and the rows of the
// last panel past n are zero.
func sqDistPanels(cols [][]float64, n int) []float64 {
	d := len(cols)
	p := make([]float64, (n+7)/8*8*d)
	for f, col := range cols {
		for i, v := range col[:n] {
			p[i/8*8*d+8*f+i%8] = v
		}
	}
	return p
}

// sqDistRows is the scalar strip of SqDistLowerInto: rows lo…hi−1 of the
// lower triangle, feature by feature over each row.
func sqDistRows(cols [][]float64, n, lo, hi int, out []float64) {
	for i := lo; i < hi; i++ {
		row := out[i*n : i*n+i+1]
		clear(row)
		for _, col := range cols {
			ci := col[i]
			for j, v := range col[:i] {
				d := ci - v
				row[j] += d * d
			}
		}
	}
}

// sqDistTiles is the AVX strip of SqDistLowerInto over the panels p of
// the columns: rows lo…hi−1 of the lower triangle, four rows at a time.
// The 8-column blocks wholly below the diagonal are stored straight into
// out; the block the diagonal cuts is computed into a scratch tile and
// copied up to the diagonal. Rows left over at the end of the matrix take
// the scalar loop.
func sqDistTiles(cols [][]float64, p []float64, n, lo, hi int, out []float64) {
	d := len(cols)
	var tile [32]float64
	i0 := lo
	for ; i0+4 <= hi; i0 += 4 {
		q := &p[i0/8*8*d+i0%8]
		full := (i0 + 1) / 8
		if full > 0 {
			sqdist4x8(q, &p[0], d, full, &out[i0*n], n)
		}
		j0 := 8 * full
		sqdist4x8(q, &p[j0*d], d, 1, &tile[0], 8)
		for r := range 4 {
			i := i0 + r
			copy(out[i*n+j0:i*n+i], tile[8*r:])
			out[i*n+i] = 0
		}
	}
	sqDistRows(cols, n, i0, hi, out)
}

// MirrorLower copies the lower triangle of the square matrix m into its
// upper triangle.
func (m *Matrix) MirrorLower() {
	n := m.rows
	for i := range n {
		for j, v := range m.data[i*n : i*n+i] {
			m.data[j*n+i] = v
		}
	}
}

// RBFExp replaces every x in row with math.Exp(-x / denom), bit for bit.
// With useExp the AVX2 leaf expNegDiv4 takes four entries at a time, and a
// block it hands back — an argument outside [−708, 709], NaN or ±Inf — and
// the last len(row)%4 entries go through math.Exp.
func RBFExp(row []float64, denom float64) {
	j := 0
	if useExp {
		for j+4 <= len(row) {
			j += expNegDiv4(&row[j], len(row)-j, denom)
			for end := min(j+4, len(row)); j < end; j++ {
				row[j] = math.Exp(-row[j] / denom)
			}
		}
	}
	for ; j < len(row); j++ {
		row[j] = math.Exp(-row[j] / denom)
	}
}
