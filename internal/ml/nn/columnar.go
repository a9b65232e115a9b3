package nn

import (
	"fmt"

	"metaopt/internal/ml"
)

// denseRowsCap mirrors maxDenseRows as a variable so tests can force the
// blocked out-of-core paths at small n.
var denseRowsCap = maxDenseRows

// blockRows is the block edge of the out-of-core kernel: queries and
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

func (sc *blockScratch) grow(nfeats int) {
	for len(sc.qcols) < nfeats {
		sc.qcols = append(sc.qcols, make([]float64, blockRows))
	}
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
	sc.grow(len(feats))
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

// selectSessionLowMem scores greedy forward selection without the n×n
// committed-distance matrix: each candidate is priced by re-running the
// blocked kernel over committed features plus the candidate. That trades
// O(n²·k) work per candidate for O(blockRows²) memory — the only shape that
// scales greedy selection past the dense cap.
type selectSessionLowMem struct {
	cols      *ml.Columns
	norm      *ml.Norm
	committed []int
	radius    float64
	oneNN     bool
	scratch   []*blockScratch
	preds     [][]int
}

// Score implements ml.SelectSession.
func (s *selectSessionLowMem) Score(worker int, chosen []int, cand int) (float64, error) {
	if len(chosen) != len(s.committed) {
		return 0, fmt.Errorf("nn: selection session out of sync: %d chosen, %d committed", len(chosen), len(s.committed))
	}
	if cand < 0 || cand >= s.cols.Dim {
		return 0, fmt.Errorf("nn: candidate feature %d out of range", cand)
	}
	if worker < 0 || worker >= len(s.scratch) {
		return 0, fmt.Errorf("nn: worker %d out of range", worker)
	}
	feats := append(append(make([]int, 0, len(s.committed)+1), s.committed...), cand)
	n := s.cols.N
	preds := s.preds[worker]
	blockedLOOCV(s.cols, s.norm, feats, s.radius, s.oneNN, s.scratch[worker], preds)
	hit := 0
	for i, p := range preds {
		if p == s.cols.Labels[i] {
			hit++
		}
	}
	return 1 - float64(hit)/float64(n), nil
}

// Commit implements ml.SelectSession.
func (s *selectSessionLowMem) Commit(f int) error {
	if f < 0 || f >= s.cols.Dim {
		return fmt.Errorf("nn: commit feature %d out of range", f)
	}
	s.committed = append(s.committed, f)
	return nil
}
