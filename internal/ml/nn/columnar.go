package nn

import "metaopt/internal/ml"

// denseRowsCap mirrors maxDenseRows as a variable so tests can force the
// blocked LOOCV at small n.
var denseRowsCap = maxDenseRows

// blockRows is the block edge of the blocked kernel: queries and
// database rows are processed blockRows at a time, so the working set is one
// blockRows² distance tile plus two normalized feature blocks — a few MB —
// regardless of corpus size.
const blockRows = 512

// blockScratch is one worker's reusable buffers for the blocked kernel.
type blockScratch struct {
	qcols  [][]float64 // normalized query block, one column per feature
	dcol   []float64   // normalized database block, one feature at a time
	tile   []float64   // blockRows×blockRows partial squared distances
	states []ml.Vote[float64]
}

func newBlockScratch(nfeats int) *blockScratch {
	sc := &blockScratch{
		qcols:  make([][]float64, nfeats),
		dcol:   make([]float64, blockRows),
		tile:   make([]float64, blockRows*blockRows),
		states: make([]ml.Vote[float64], blockRows),
	}
	for i := range sc.qcols {
		sc.qcols[i] = make([]float64, blockRows)
	}
	return sc
}

// blockedLOOCV computes the leave-one-out prediction of every row against
// the whole column backing, streaming both sides block by block.
// feats gives the feature columns in accumulation order; the tile starts at
// zero and adds one squared difference per feature, which is the float
// addition sequence SqDist performs over a row — so every distance equals
// the dense path's entry and every vote matches it. Database blocks advance
// in row order, preserving the vote's first-index-wins nearest rule.
func blockedLOOCV(cols *ml.Columns, norm *ml.Norm, feats []int, radius float64, oneNN bool, sc *blockScratch, preds []int) {
	n := cols.N
	labels := cols.Labels
	for qs := 0; qs < n; qs += blockRows {
		qe := min(qs+blockRows, n)
		qb := qe - qs
		states := sc.states[:qb]
		for i := range states {
			states[i].Reset(radius, oneNN)
		}
		for fi, f := range feats {
			norm.ApplyColumnRange(cols, f, qs, qe, sc.qcols[fi])
		}
		for ds := 0; ds < n; ds += blockRows {
			de := min(ds+blockRows, n)
			db := de - ds
			tile := sc.tile[:qb*db]
			clear(tile)
			for fi, f := range feats {
				dcol := norm.ApplyColumnRange(cols, f, ds, de, sc.dcol)
				qcol := sc.qcols[fi][:qb]
				for qi, qv := range qcol {
					row := tile[qi*db : qi*db+db]
					for j, dv := range dcol {
						d := qv - dv
						row[j] += d * d
					}
				}
			}
			for qi := range states {
				st := &states[qi]
				gq := qs + qi
				row := tile[qi*db : qi*db+db]
				for j, d2 := range row {
					if gj := ds + j; gj != gq {
						st.Observe(gj, labels[gj], d2)
					}
				}
			}
		}
		for qi := range states {
			preds[qs+qi] = states[qi].Decide(labels)
		}
	}
}
