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
// first-index nearest neighbor for an empty radius and in 1-NN mode.
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
				closest[lab] = math.Min(closest[lab], d2)
			}
		}
		if oneNN || found == 0 {
			preds[i] = d.Examples[nearest].Label
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

// TestSelectSessionMatchesSubsetScoring checks that incremental candidate
// scores equal the error of projecting the subset and running LOOCV on it —
// the exact computation the slow greedy path performs — across several
// rounds and both voting modes.
func TestSelectSessionMatchesSubsetScoring(t *testing.T) {
	d := mltest.Clusters(90, 6, 4, 0.3, 11)
	dim := len(d.Examples[0].Features)
	for _, oneNN := range []bool{false, true} {
		tr := &Trainer{OneNN: oneNN}
		sessI, err := tr.BeginSelect(d, 1)
		if err != nil {
			t.Fatal(err)
		}
		var chosen []int
		for round := 0; round < 3; round++ {
			bestF, bestErr := -1, 2.0
			for f := 0; f < dim; f++ {
				already := false
				for _, c := range chosen {
					already = already || c == f
				}
				if already {
					continue
				}
				got, err := sessI.Score(0, chosen, f)
				if err != nil {
					t.Fatal(err)
				}
				sub := d.Select(append(append([]int{}, chosen...), f))
				preds, err := tr.LOOCV(sub)
				if err != nil {
					t.Fatal(err)
				}
				want := 1 - ml.Accuracy(sub, preds)
				if got != want {
					t.Fatalf("oneNN=%v round %d feature %d: session %v, subset %v", oneNN, round, f, got, want)
				}
				if got < bestErr {
					bestF, bestErr = f, got
				}
			}
			if err := sessI.Commit(bestF); err != nil {
				t.Fatal(err)
			}
			chosen = append(chosen, bestF)
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
