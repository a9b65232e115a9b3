package nn

import (
	"math"
	"testing"

	"metaopt/internal/linalg"
	"metaopt/internal/ml"
	"metaopt/internal/ml/mltest"
)

// oracleLOOCV is the reference the near-neighbor kernels are pinned to:
// normalize the rows with statistics from the whole dataset, then classify
// every example by a direct SqDist scan over the other rows, with the
// paper's rule restated literally — a strict majority of the neighbors
// within the radius, a tie to the class with the nearer exemplar, and the
// first-index nearest neighbor for an empty radius and in 1-NN mode. Only
// a distance within the radius (d² ≤ r²) votes, so a NaN distance neither
// votes nor is ever nearest; with no nearest neighbor at all (every
// distance NaN) the first example's label is the answer.
func oracleLOOCV(d *ml.Dataset, radius float64, oneNN bool) []int {
	norm := ml.FitNorm(d.Columns())
	rows := norm.ApplyAll(d)
	r2 := radius * radius
	preds := make([]int, len(rows))
	for i, q := range rows {
		nearest, nearestD := -1, math.Inf(1)
		var votes [ml.NumClasses + 1]int
		var closest [ml.NumClasses + 1]float64
		for c := range closest {
			closest[c] = math.Inf(1)
		}
		found := 0
		for j, row := range rows {
			if j == i {
				continue
			}
			d2 := linalg.SqDist(q, row)
			if d2 < nearestD {
				nearest, nearestD = j, d2
			}
			if d2 <= r2 {
				found++
				lab := d.Examples[j].Label
				votes[lab]++
				if d2 < closest[lab] {
					closest[lab] = d2
				}
			}
		}
		if oneNN || found == 0 {
			preds[i] = d.Examples[max(nearest, 0)].Label
			continue
		}
		best := 0
		for lab := 1; lab <= ml.NumClasses; lab++ {
			more := votes[lab] > votes[best]
			tie := votes[lab] > 0 && votes[lab] == votes[best] && closest[lab] < closest[best]
			if more || tie {
				best = lab
			}
		}
		preds[i] = best
	}
	return preds
}

// TestLOOCVDenseMatchesDirect pins the dense distance-matrix LOOCV to the
// per-fold oracle scan, in both voting modes and with an empty-radius
// fallback.
func TestLOOCVDenseMatchesDirect(t *testing.T) {
	d := mltest.Clusters(150, 5, 4, 0.25, 7)
	for _, tr := range []*Trainer{{}, {OneNN: true}, {Radius: 1e-9}} {
		got, err := tr.LOOCV(d)
		if err != nil {
			t.Fatal(err)
		}
		want := oracleLOOCV(d, tr.radius(), tr.OneNN)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%+v fold %d: dense pred %d, oracle %d", *tr, i, got[i], want[i])
			}
		}
	}
}

// TestPredictZeroAllocs pins the pooled query buffer: a warmed classifier
// answers queries with zero heap allocations.
func TestPredictZeroAllocs(t *testing.T) {
	d := mltest.Clusters(120, 6, 4, 0.05, 5)
	for _, oneNN := range []bool{false, true} {
		c, err := (&Trainer{OneNN: oneNN}).Train(d)
		if err != nil {
			t.Fatal(err)
		}
		q := d.Examples[3].Features
		c.Predict(q) // warm the pool
		if allocs := testing.AllocsPerRun(100, func() { c.Predict(q) }); allocs != 0 {
			t.Errorf("oneNN=%v: Predict allocates %v per run, want 0", oneNN, allocs)
		}
	}
}
