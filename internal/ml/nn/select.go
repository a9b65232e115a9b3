package nn

import (
	"fmt"

	"metaopt/internal/linalg"
	"metaopt/internal/ml"
)

// selectSession scores greedy forward selection incrementally. Squared
// Euclidean distance is additive across features, and the per-feature
// normalization statistics do not depend on which other features are
// selected, so the session keeps one n×n distance matrix over the committed
// features and prices a candidate by adding its single-feature contribution
// on the fly: O(n²) per candidate instead of O(n²·|chosen|).
//
// Bit-identity with the per-subset path: greedy projects subsets with the
// candidate appended last, and SqDist accumulates features left to right —
// exactly the order the committed matrix was built in (Commit adds one
// feature's contribution per round). Identical floats in, identical
// neighbor choices and errors out.
type selectSession struct {
	n         int
	cols      [][]float64 // normalized feature columns of the full dataset
	labels    []int
	dist      []float64 // n×n squared distances over committed features
	committed int
	radius    float64
	oneNN     bool
}

// BeginSelect implements ml.SelectScorer. Up to denseRowsCap examples the
// session keeps the n×n committed-distance matrix; past it, candidates are
// scored with the blocked kernel instead.
func (t *Trainer) BeginSelect(d *ml.Dataset, workers int) (ml.SelectSession, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	n := d.Len()
	if n < 2 {
		return nil, fmt.Errorf("nn: selection needs at least 2 examples")
	}
	cols := d.Columns()
	norm := ml.FitNorm(cols)
	if n <= denseRowsCap {
		return &selectSession{
			n:      n,
			cols:   norm.ApplyColumns(cols),
			labels: cols.Labels,
			dist:   make([]float64, n*n),
			radius: t.radius(),
			oneNN:  t.OneNN,
		}, nil
	}
	if workers < 1 {
		workers = 1
	}
	s := &selectSessionLowMem{cols: cols, norm: norm, radius: t.radius(), oneNN: t.OneNN}
	for w := 0; w < workers; w++ {
		s.scratch = append(s.scratch, newBlockScratch(cols.Dim+1))
		s.preds = append(s.preds, make([]int, n))
	}
	return s, nil
}

// Score implements ml.SelectSession. Concurrent calls only read shared
// state.
func (s *selectSession) Score(_ int, chosen []int, cand int) (float64, error) {
	if len(chosen) != s.committed {
		return 0, fmt.Errorf("nn: selection session out of sync: %d chosen, %d committed", len(chosen), s.committed)
	}
	if cand < 0 || cand >= len(s.cols) {
		return 0, fmt.Errorf("nn: candidate feature %d out of range", cand)
	}
	col := s.cols[cand]
	hit := 0
	for i := 0; i < s.n; i++ {
		if s.predictFold(i, col) == s.labels[i] {
			hit++
		}
	}
	// 1 − accuracy, the exact expression the per-subset path reports (the
	// float is not always miss/n).
	return 1 - float64(hit)/float64(s.n), nil
}

// predictFold classifies example i against the rest of the dataset over the
// committed features plus the candidate column.
func (s *selectSession) predictFold(i int, col []float64) int {
	ci := col[i]
	var v ml.Vote[float64]
	v.Reset(s.radius, s.oneNN)
	for j, base := range s.dist[i*s.n : (i+1)*s.n] {
		if j != i {
			dc := ci - col[j]
			v.Observe(j, s.labels[j], base+dc*dc)
		}
	}
	return v.Decide(s.labels)
}

// Commit implements ml.SelectSession: folds the round winner's
// single-feature contribution into the committed distance matrix.
func (s *selectSession) Commit(f int) error {
	if f < 0 || f >= len(s.cols) {
		return fmt.Errorf("nn: commit feature %d out of range", f)
	}
	linalg.AddSqColumn(s.dist, s.cols[f])
	s.committed++
	return nil
}
