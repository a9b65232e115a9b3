// Package nn implements the paper's near-neighbor classifier: examples are
// normalized so every feature weighs equally, a query is answered by the
// most common label among training examples within a fixed radius (0.3 in
// the paper), and queries with no neighbors fall back to the single nearest
// example. A pure 1-NN mode supports the greedy feature-selection
// experiments, which use the single closest point.
package nn

import (
	"fmt"
	"sync"

	"metaopt/internal/linalg"
	"metaopt/internal/ml"
)

// DefaultRadius is the neighborhood radius the paper determined
// experimentally.
const DefaultRadius = 0.3

// Trainer configures near-neighbor classification.
type Trainer struct {
	// Radius of the voting neighborhood in normalized feature space.
	// Zero means DefaultRadius.
	Radius float64

	// OneNN uses the single nearest example instead of radius voting.
	OneNN bool
}

// Classifier is a populated near-neighbor database.
type Classifier struct {
	norm       *ml.Norm
	rows       [][]float64
	labels     []int
	names      []string
	benchmarks []string
	radius     float64
	oneNN      bool

	// qbuf pools normalized-query buffers so Predict performs zero heap
	// allocations in steady state.
	qbuf sync.Pool
}

var _ ml.Classifier = (*Classifier)(nil)
var _ ml.LOOCVer = (*Trainer)(nil)
var _ ml.SelectScorer = (*Trainer)(nil)

func (t *Trainer) radius() float64 {
	if t.Radius > 0 {
		return t.Radius
	}
	return DefaultRadius
}

// Train populates the database. Near-neighbor "training" is just
// normalization plus storage.
func (t *Trainer) Train(d *ml.Dataset) (ml.Classifier, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	norm := ml.FitNorm(d.Columns())
	c := &Classifier{
		norm:   norm,
		rows:   norm.ApplyAll(d),
		radius: t.radius(),
		oneNN:  t.OneNN,
	}
	for _, e := range d.Examples {
		c.labels = append(c.labels, e.Label)
		c.names = append(c.names, e.Name)
		c.benchmarks = append(c.benchmarks, e.Benchmark)
	}
	return c, nil
}

// Predict classifies a raw feature vector.
func (c *Classifier) Predict(features []float64) int {
	bp, _ := c.qbuf.Get().(*[]float64)
	if bp == nil || cap(*bp) < len(features) {
		bp = new([]float64)
		*bp = make([]float64, len(features))
	}
	v := c.vote(c.norm.ApplyInto(features, (*bp)[:cap(*bp)]), c.oneNN)
	c.qbuf.Put(bp)
	return v.Decide(c.labels)
}

// Confidence reports the size of the voting neighborhood and the agreement
// of its majority class for a query — the paper's outlier-detection signal.
func (c *Classifier) Confidence(features []float64) (neighbors int, agreement float64) {
	v := c.vote(c.norm.Apply(features), false)
	return v.Support()
}

// vote scans the database for a normalized query.
func (c *Classifier) vote(q []float64, oneNN bool) ml.Vote[float64] {
	var v ml.Vote[float64]
	v.Reset(c.radius, oneNN)
	for i, row := range c.rows {
		v.Observe(i, c.labels[i], linalg.SqDist(q, row))
	}
	return v
}

// maxDenseRows bounds the examples for which LOOCV materializes the n×n
// distance matrix (4096² float64 = 128 MB).
const maxDenseRows = 4096

// LOOCV classifies every example against the rest of the database. The
// normalization statistics come from the full dataset, matching how the
// paper's Matlab prototype normalized once before cross-validating. Up to
// denseRowsCap examples, the lower triangle of pairwise distances is
// computed once from the normalized columns and mirrored, so each of the n
// folds votes over one precomputed row. Beyond it the blocked kernel
// streams the columns in bounded memory, so a 10×–100× corpus
// cross-validates without the n×n matrix or per-row heap copies.
func (t *Trainer) LOOCV(d *ml.Dataset) ([]int, error) {
	if d.Len() < 2 {
		return nil, fmt.Errorf("nn: LOOCV needs at least 2 examples")
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	cols := d.Columns()
	norm := ml.FitNorm(cols)
	n := cols.N
	preds := make([]int, n)
	if n <= denseRowsCap {
		dist := linalg.SqDistLowerInto(norm.ApplyColumns(cols), n, nil)
		linalg.NewMatrixData(n, n, dist).MirrorLower()
		for i := range preds {
			preds[i] = ml.VoteRow(dist[i*n:(i+1)*n], cols.Labels, i, t.radius(), t.OneNN)
		}
		return preds, nil
	}
	feats := make([]int, cols.Dim)
	for f := range feats {
		feats[f] = f
	}
	blockedLOOCV(cols, norm, feats, t.radius(), t.OneNN, newBlockScratch(len(feats)), preds)
	return preds, nil
}
