// Package ml defines the supervised-learning core the paper's experiments
// are built from: labeled datasets of loop feature vectors, feature
// normalization and projection, classifier interfaces, leave-one-out
// cross-validation, and the rank/cost metrics of Table 2.
package ml

import (
	"fmt"
	"math"
	"strings"

	"metaopt/internal/obs"
	"metaopt/internal/par"
)

var mLOOCVFolds = obs.C("ml.loocv_folds")

// NumClasses is the number of labels: unroll factors 1..8.
const NumClasses = 8

// Example is one labeled loop.
type Example struct {
	Name      string // loop name, unique within a benchmark
	Benchmark string // owning benchmark
	Features  []float64
	Label     int // best unroll factor, 1..NumClasses

	// Cycles holds the measured runtime for each unroll factor (index
	// 1..8; index 0 unused). It backs the rank and cost columns of
	// Table 2 and the oracle of Figures 4/5.
	Cycles [NumClasses + 1]int64
}

// Dataset is a labeled training set.
type Dataset struct {
	Examples     []Example
	FeatureNames []string

	// Cols is an optional column-major backing. When present and
	// consistent with the examples, Columns returns it instead of copying
	// the rows, so normalization fitting, pairwise distances and the
	// NN/LS-SVM LOOCV paths read it directly.
	Cols *Columns

	// slab is the flat backing array behind projected feature rows
	// (SelectInto); keeping it lets a reused buffer dataset recycle one
	// allocation instead of one per example.
	slab []float64
}

// Len returns the number of examples.
func (d *Dataset) Len() int { return len(d.Examples) }

// Validate checks labels and dimensions: every example carries a label in
// 1..NumClasses and the same positive number of features.
func (d *Dataset) Validate() error {
	if d.Len() == 0 {
		return fmt.Errorf("ml: empty dataset")
	}
	dim := len(d.Examples[0].Features)
	if dim == 0 {
		return fmt.Errorf("ml: example 0 (%s) has no features", d.Examples[0].Name)
	}
	if len(d.FeatureNames) != 0 && len(d.FeatureNames) != dim {
		return fmt.Errorf("ml: %d feature names for %d features", len(d.FeatureNames), dim)
	}
	for i, e := range d.Examples {
		if e.Label < 1 || e.Label > NumClasses {
			return fmt.Errorf("ml: example %d (%s) has label %d", i, e.Name, e.Label)
		}
		if len(e.Features) != dim {
			return fmt.Errorf("ml: example %d (%s) has %d features, want %d", i, e.Name, len(e.Features), dim)
		}
	}
	return nil
}

// Select returns a dataset projected onto the given feature indices. All
// projected rows share one flat column slab — a single allocation instead
// of one per example.
func (d *Dataset) Select(idx []int) *Dataset {
	return d.SelectInto(idx, &Dataset{})
}

// SelectInto projects the dataset onto idx, reusing buf's example slice
// and feature slab when large enough. Greedy forward selection scores 38
// candidate features per round against projections of the same dataset;
// reusing one buffer per worker turns that into a zero-allocation loop.
// The returned dataset aliases buf — it is only valid until buf's next
// reuse, and callers must not retain classifiers trained on it past that
// point.
func (d *Dataset) SelectInto(idx []int, buf *Dataset) *Dataset {
	n, k := d.Len(), len(idx)
	buf.FeatureNames = buf.FeatureNames[:0]
	for _, j := range idx {
		name := fmt.Sprintf("f%d", j)
		if j < len(d.FeatureNames) {
			name = d.FeatureNames[j]
		}
		buf.FeatureNames = append(buf.FeatureNames, name)
	}
	if cap(buf.Examples) < n {
		buf.Examples = make([]Example, n)
	} else {
		buf.Examples = buf.Examples[:n]
	}
	if cap(buf.slab) < n*k {
		buf.slab = make([]float64, n*k)
	} else {
		buf.slab = buf.slab[:n*k]
	}
	if cols := d.UsableCols(); cols != nil {
		// Column-backed source: fill the projected slab one source column
		// at a time, every read a sequential scan of a contiguous slab.
		// Values land in the same slots the row loop writes, so the result
		// is bit-identical.
		for c, j := range idx {
			for r, v := range cols.feats[j] {
				buf.slab[r*k+c] = v
			}
		}
		for i := range d.Examples {
			e := d.Examples[i]
			e.Features = buf.slab[i*k : (i+1)*k : (i+1)*k]
			buf.Examples[i] = e
		}
		// The projection shares the parent's column slabs, so downstream
		// columnar kernels keep their sequential access on the subset.
		buf.Cols = cols.Project(idx)
		return buf
	}
	buf.Cols = nil
	for i, e := range d.Examples {
		row := buf.slab[i*k : (i+1)*k : (i+1)*k]
		for c, j := range idx {
			row[c] = e.Features[j]
		}
		e.Features = row
		buf.Examples[i] = e
	}
	return buf
}

// WithoutBenchmark splits off every example belonging to the named
// benchmark: train gets the rest, test gets the benchmark's loops. This is
// the evaluation protocol of Figures 4 and 5.
func (d *Dataset) WithoutBenchmark(name string) (train, test *Dataset) {
	train = &Dataset{FeatureNames: d.FeatureNames}
	test = &Dataset{FeatureNames: d.FeatureNames}
	for _, e := range d.Examples {
		if e.Benchmark == name {
			test.Examples = append(test.Examples, e)
		} else {
			train.Examples = append(train.Examples, e)
		}
	}
	return train, test
}

// Without returns the dataset minus example i (for leave-one-out).
func (d *Dataset) Without(i int) *Dataset {
	return d.WithoutInto(i, &Dataset{})
}

// WithoutInto writes the dataset minus example i into buf, reusing buf's
// example slice across folds. LOOCV runs one fold per example; a reused
// per-worker buffer replaces n fold-sized allocations with one.
func (d *Dataset) WithoutInto(i int, buf *Dataset) *Dataset {
	buf.FeatureNames = d.FeatureNames
	buf.Cols = nil // fold subsets do not align with the column backing
	buf.Examples = buf.Examples[:0]
	buf.Examples = append(buf.Examples, d.Examples[:i]...)
	buf.Examples = append(buf.Examples, d.Examples[i+1:]...)
	return buf
}

// Norm is a per-feature normalizer mapping training values into [0, 1].
// Counts and cycle estimates are heavy-tailed (a trip count spans 4 to
// 8192), so values first pass through a signed log transform before min-max
// scaling; this "weighs all features equally" (the paper's requirement) in
// a way that keeps resolution where most loops live.
type Norm struct {
	Min, Scale []float64
}

// squash is the monotone transform applied before scaling.
func squash(v float64) float64 {
	if v < 0 {
		return -math.Log1p(-v)
	}
	return math.Log1p(v)
}

// FitNorm computes normalization statistics over a dataset's columns
// (Dataset.Columns): one contiguous sweep per feature.
// A nil backing (an empty dataset) gives an empty normalizer.
func FitNorm(cols *Columns) *Norm {
	if cols == nil {
		return &Norm{}
	}
	n := &Norm{Min: make([]float64, cols.Dim), Scale: make([]float64, cols.Dim)}
	for j := 0; j < cols.Dim; j++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, raw := range cols.feats[j] {
			v := squash(raw)
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		n.Min[j] = lo
		if hi > lo {
			n.Scale[j] = 1 / (hi - lo)
		}
	}
	return n
}

// ApplyColumns normalizes a column backing into dim full-length columns
// sharing one flat slab. Each output element is computed by exactly the
// expression ApplyInto uses, so a row assembled from the returned columns
// carries the same bits as a normalized row vector.
func (n *Norm) ApplyColumns(cols *Columns) [][]float64 {
	slab := make([]float64, cols.Dim*cols.N)
	out := make([][]float64, cols.Dim)
	for j := 0; j < cols.Dim; j++ {
		col := slab[j*cols.N : (j+1)*cols.N]
		out[j] = col
		if j >= len(n.Min) {
			continue // ApplyInto zero-fills features past the fitted width
		}
		min, scale := n.Min[j], n.Scale[j]
		for r, raw := range cols.feats[j] {
			col[r] = (squash(raw) - min) * scale
		}
	}
	return out
}

// Apply maps a raw feature vector into normalized space.
func (n *Norm) Apply(v []float64) []float64 {
	return n.ApplyInto(v, make([]float64, len(v)))
}

// ApplyInto normalizes v into out (which must have len(v) capacity) and
// returns it — the allocation-free form for pooled query buffers.
func (n *Norm) ApplyInto(v, out []float64) []float64 {
	out = out[:len(v)]
	for j := range v {
		if j < len(n.Min) {
			out[j] = (squash(v[j]) - n.Min[j]) * n.Scale[j]
		} else {
			out[j] = 0
		}
	}
	return out
}

// ApplyAll normalizes every example, returning the matrix of rows.
func (n *Norm) ApplyAll(d *Dataset) [][]float64 {
	rows := make([][]float64, d.Len())
	for i, e := range d.Examples {
		rows[i] = n.Apply(e.Features)
	}
	return rows
}

// Classifier predicts an unroll factor from a raw (unnormalized) feature
// vector.
type Classifier interface {
	Predict(features []float64) int
}

// Trainer builds a classifier from a dataset.
type Trainer interface {
	Train(d *Dataset) (Classifier, error)
}

// LOOCVer is implemented by trainers with a fast exact leave-one-out
// shortcut (the LS-SVM); LOOCV uses it when available.
type LOOCVer interface {
	LOOCV(d *Dataset) ([]int, error)
}

// FoldTrainer is implemented by trainers that can amortize shared work
// (presorted feature orders, cached distances) across leave-one-out folds
// over the same dataset. Unlike LOOCVer it does not replace the fold loop:
// LOOCV still trains every fold individually across the worker pool, it
// just trains each via the session. The session must return classifiers
// identical to Train on the fold's own dataset.
type FoldTrainer interface {
	// BeginFolds prepares shared state for leave-one-out folds over d with
	// up to workers concurrent callers.
	BeginFolds(d *Dataset, workers int) (FoldSession, error)
}

// FoldSession trains per-fold classifiers for one BeginFolds dataset.
// Calls with distinct worker ids may run concurrently.
type FoldSession interface {
	// TrainWithout trains on the session dataset minus example i.
	TrainWithout(worker, i int) (Classifier, error)
}

// SelectScorer is implemented by trainers that can score greedy forward
// feature selection incrementally: the session carries state shared across
// a whole selection run (e.g. the normalized columns and the features
// committed so far), so scoring a round costs far less than re-deriving
// every candidate subset. Scores must be exactly the error
// errorOf(tr, d.Select(chosen ∪ {cand})) would produce.
type SelectScorer interface {
	// BeginSelect prepares shared state for selection over d.
	BeginSelect(d *Dataset) (SelectSession, error)
}

// SelectSession scores the candidate features of one BeginSelect dataset a
// round at a time. Round and Commit are called serially; Round may use the
// shared worker pool.
type SelectSession interface {
	// Round sets scores[c] to the selection error of chosen ∪ {cands[c]}
	// for every candidate. chosen must be exactly the features committed
	// so far, in commit order.
	Round(chosen, cands []int, scores []float64) error
	// Commit folds the round winner into the shared state.
	Commit(f int) error
}

// LOOCV runs leave-one-out cross-validation and returns the held-out
// prediction for every example. Slow-path folds (trainers without an exact
// shortcut) are independent, so they run across the shared worker pool;
// predictions are written by fold index, making the output bit-identical
// to a serial pass.
func LOOCV(tr Trainer, d *Dataset) ([]int, error) {
	sp := obs.Begin("loocv")
	defer sp.End()
	mLOOCVFolds.Add(int64(d.Len()))
	if fast, ok := tr.(LOOCVer); ok {
		return fast.LOOCV(d)
	}
	n := d.Len()
	preds := make([]int, n)
	if ft, ok := tr.(FoldTrainer); ok {
		sess, err := ft.BeginFolds(d, par.Workers(n))
		if err != nil {
			return nil, fmt.Errorf("ml: LOOCV begin folds: %w", err)
		}
		err = par.ForEachWorker(n, func(w, i int) error {
			c, err := sess.TrainWithout(w, i)
			if err != nil {
				return fmt.Errorf("ml: LOOCV fold %d: %w", i, err)
			}
			preds[i] = c.Predict(d.Examples[i].Features)
			return nil
		})
		if err != nil {
			return nil, err
		}
		return preds, nil
	}
	folds := make([]Dataset, par.Workers(n))
	err := par.ForEachWorker(n, func(w, i int) error {
		c, err := tr.Train(d.WithoutInto(i, &folds[w]))
		if err != nil {
			return fmt.Errorf("ml: LOOCV fold %d: %w", i, err)
		}
		preds[i] = c.Predict(d.Examples[i].Features)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return preds, nil
}

// Accuracy is the fraction of predictions matching the label.
func Accuracy(d *Dataset, preds []int) float64 {
	if len(preds) == 0 {
		return 0
	}
	hit := 0
	for i, p := range preds {
		if p == d.Examples[i].Label {
			hit++
		}
	}
	return float64(hit) / float64(len(preds))
}

// Rank returns which place (1 = optimal .. NumClasses = worst) the
// predicted unroll factor takes in the example's measured cycle ordering.
// Ties in measured cycles share the better rank.
func Rank(e *Example, pred int) int {
	if pred < 1 || pred > NumClasses {
		return NumClasses
	}
	rank := 1
	for u := 1; u <= NumClasses; u++ {
		if e.Cycles[u] < e.Cycles[pred] {
			rank++
		}
	}
	return rank
}

// Cost is the runtime penalty of the prediction relative to the measured
// optimum (1.0 = optimal).
func Cost(e *Example, pred int) float64 {
	if pred < 1 || pred > NumClasses {
		pred = 1
	}
	best := e.Cycles[1]
	for u := 2; u <= NumClasses; u++ {
		if e.Cycles[u] < best {
			best = e.Cycles[u]
		}
	}
	if best <= 0 {
		return 1
	}
	return float64(e.Cycles[pred]) / float64(best)
}

// RankTable aggregates predictions into the Table 2 rows: the fraction of
// predictions at each rank (index 0 = optimal) and the mean cost at each
// rank over the dataset's measured runtimes.
func RankTable(d *Dataset, preds []int) (frac [NumClasses]float64, cost [NumClasses]float64) {
	var count [NumClasses]int
	var costSum [NumClasses]float64
	var costN [NumClasses]int
	for i, p := range preds {
		r := Rank(&d.Examples[i], p) - 1
		if r >= NumClasses {
			r = NumClasses - 1
		}
		count[r]++
		costSum[r] += Cost(&d.Examples[i], p)
		costN[r]++
	}
	for r := 0; r < NumClasses; r++ {
		if len(preds) > 0 {
			frac[r] = float64(count[r]) / float64(len(preds))
		}
		if costN[r] > 0 {
			cost[r] = costSum[r] / float64(costN[r])
		}
	}
	return frac, cost
}

// CostByRank computes, for every rank r (0-based), the mean penalty of
// choosing the rank-r factor across all examples — the paper's Cost column
// (how expensive the Nth-best choice is on average).
func CostByRank(d *Dataset) [NumClasses]float64 {
	var sum [NumClasses]float64
	for i := range d.Examples {
		e := &d.Examples[i]
		// Order the factors by measured cycles.
		order := make([]int, 0, NumClasses)
		for u := 1; u <= NumClasses; u++ {
			order = append(order, u)
		}
		for a := 1; a < len(order); a++ {
			for b := a; b > 0 && e.Cycles[order[b]] < e.Cycles[order[b-1]]; b-- {
				order[b], order[b-1] = order[b-1], order[b]
			}
		}
		best := e.Cycles[order[0]]
		for r, u := range order {
			if best > 0 {
				sum[r] += float64(e.Cycles[u]) / float64(best)
			} else {
				sum[r]++
			}
		}
	}
	n := float64(d.Len())
	if n == 0 {
		return sum
	}
	for r := range sum {
		sum[r] /= n
	}
	return sum
}

// Confusion is a multi-class confusion matrix: Counts[a][p] is how often an
// example with true label a was predicted as p (1-based labels; index 0
// unused).
type Confusion struct {
	Counts [NumClasses + 1][NumClasses + 1]int
	Total  int
}

// NewConfusion tallies predictions against a dataset's labels.
func NewConfusion(d *Dataset, preds []int) *Confusion {
	c := &Confusion{}
	for i, p := range preds {
		if p < 1 || p > NumClasses {
			p = 1
		}
		c.Counts[d.Examples[i].Label][p]++
		c.Total++
	}
	return c
}

// Accuracy is the diagonal mass.
func (c *Confusion) Accuracy() float64 {
	if c.Total == 0 {
		return 0
	}
	hit := 0
	for lab := 1; lab <= NumClasses; lab++ {
		hit += c.Counts[lab][lab]
	}
	return float64(hit) / float64(c.Total)
}

// Recall returns the per-class recall (0 when the class never occurs).
func (c *Confusion) Recall(label int) float64 {
	total := 0
	for p := 1; p <= NumClasses; p++ {
		total += c.Counts[label][p]
	}
	if total == 0 {
		return 0
	}
	return float64(c.Counts[label][label]) / float64(total)
}

// String renders the matrix with actual labels as rows.
func (c *Confusion) String() string {
	var sb strings.Builder
	sb.WriteString("actual\\pred")
	for p := 1; p <= NumClasses; p++ {
		fmt.Fprintf(&sb, "%6d", p)
	}
	sb.WriteString("  recall\n")
	for a := 1; a <= NumClasses; a++ {
		fmt.Fprintf(&sb, "%10d ", a)
		for p := 1; p <= NumClasses; p++ {
			fmt.Fprintf(&sb, "%6d", c.Counts[a][p])
		}
		fmt.Fprintf(&sb, "  %5.2f\n", c.Recall(a))
	}
	fmt.Fprintf(&sb, "overall accuracy: %.3f over %d examples\n", c.Accuracy(), c.Total)
	return sb.String()
}
