package nn

import (
	"testing"

	"metaopt/internal/ml"
	"metaopt/internal/ml/mltest"
)

// liteCopy strips the feature rows, leaving a column-only dataset of the
// kind the mmap'd colstore reader serves, backed by chunks of the given
// size.
func liteCopy(t *testing.T, d *ml.Dataset, chunkRows int) *ml.Dataset {
	t.Helper()
	n := d.Len()
	dim := len(d.Examples[0].Features)
	var chunks []ml.ColChunk
	labels := make([]int, 0, n)
	for s := 0; s < n; s += chunkRows {
		e := min(s+chunkRows, n)
		feats := make([][]float64, dim)
		for j := range feats {
			feats[j] = make([]float64, e-s)
			for r := s; r < e; r++ {
				feats[j][r-s] = d.Examples[r].Features[j]
			}
		}
		chunks = append(chunks, ml.ColChunk{Start: s, Rows: e - s, Feats: feats})
	}
	for _, ex := range d.Examples {
		labels = append(labels, ex.Label)
	}
	cols, err := ml.NewColumns(dim, labels, chunks)
	if err != nil {
		t.Fatal(err)
	}
	lite := &ml.Dataset{FeatureNames: d.FeatureNames, Cols: cols}
	for _, ex := range d.Examples {
		ex.Features = nil
		lite.Examples = append(lite.Examples, ex)
	}
	return lite
}

// TestColumnarLOOCVMatchesRows pins LOOCV on every dataset layout — rows
// alone, rows with an attached backing, and a column-only (out-of-core
// style) dataset in one chunk and in many — to the oracle, prediction by
// prediction.
func TestColumnarLOOCVMatchesRows(t *testing.T) {
	d := mltest.Clusters(150, 5, 4, 0.25, 7)
	for _, oneNN := range []bool{false, true} {
		tr := &Trainer{OneNN: oneNN}
		want := oracleLOOCV(d, tr.radius(), oneNN)
		backed := mltest.Clusters(150, 5, 4, 0.25, 7)
		backed.BuildColumns()
		if backed.UsableCols() == nil {
			t.Fatal("BuildColumns did not attach a usable backing")
		}
		for name, ds := range map[string]*ml.Dataset{
			"rows":             d,
			"attached":         backed,
			"lite one chunk":   liteCopy(t, d, 150),
			"lite multi chunk": liteCopy(t, d, 33),
		} {
			got, err := tr.LOOCV(ds)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("oneNN=%v %s fold %d: LOOCV %d, oracle %d", oneNN, name, i, got[i], want[i])
				}
			}
		}
	}
}

// TestBlockedLOOCVMatchesDense forces the out-of-core blocked kernel at
// small n and pins it to the oracle.
func TestBlockedLOOCVMatchesDense(t *testing.T) {
	d := mltest.Clusters(200, 6, 4, 0.3, 13)
	defer func(old int) { denseRowsCap = old }(denseRowsCap)
	denseRowsCap = 16 // every dataset now takes the blocked path
	for _, tr := range []*Trainer{{}, {OneNN: true}, {Radius: 1e-9}} {
		want := oracleLOOCV(d, tr.radius(), tr.OneNN)
		for name, ds := range map[string]*ml.Dataset{
			"rows":             d,
			"lite one chunk":   liteCopy(t, d, 200),
			"lite multi chunk": liteCopy(t, d, 47),
		} {
			got, err := tr.LOOCV(ds)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%+v %s fold %d: blocked %d, oracle %d", *tr, name, i, got[i], want[i])
				}
			}
		}
	}
}

// TestColumnarSelectMatchesRows drives three greedy rounds on the dense
// session and the blocked low-memory session in parallel, requiring both
// to score every candidate exactly (to the bit) as the oracle LOOCV of the
// projected subset does, and so to pick the same features.
func TestColumnarSelectMatchesRows(t *testing.T) {
	d := mltest.Clusters(90, 6, 4, 0.3, 11)
	dim := len(d.Examples[0].Features)
	defer func(old int) { denseRowsCap = old }(denseRowsCap)
	for _, oneNN := range []bool{false, true} {
		tr := &Trainer{OneNN: oneNN}
		denseRowsCap = maxDenseRows
		denseSess, err := tr.BeginSelect(liteCopy(t, d, 29), 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := denseSess.(*selectSession); !ok {
			t.Fatalf("dense session is %T", denseSess)
		}
		denseRowsCap = 16
		lowSess, err := tr.BeginSelect(liteCopy(t, d, 29), 2)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := lowSess.(*selectSessionLowMem); !ok {
			t.Fatalf("low-memory session is %T", lowSess)
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
				sub := d.Select(append(append([]int{}, chosen...), f))
				want := 1 - ml.Accuracy(sub, oracleLOOCV(sub, tr.radius(), oneNN))
				if got, err := denseSess.Score(0, chosen, f); err != nil || got != want {
					t.Fatalf("oneNN=%v round %d feature %d: dense %v (%v), oracle %v", oneNN, round, f, got, err, want)
				}
				if got, err := lowSess.Score(f%2, chosen, f); err != nil || got != want {
					t.Fatalf("oneNN=%v round %d feature %d: blocked %v (%v), oracle %v", oneNN, round, f, got, err, want)
				}
				if want < bestErr {
					bestF, bestErr = f, want
				}
			}
			for _, s := range []ml.SelectSession{denseSess, lowSess} {
				if err := s.Commit(bestF); err != nil {
					t.Fatal(err)
				}
			}
			chosen = append(chosen, bestF)
		}
	}
}

// TestTrainRejectsColumnOnly documents the serving restriction: a classifier
// that answers arbitrary queries needs materialized rows.
func TestTrainRejectsColumnOnly(t *testing.T) {
	d := mltest.Clusters(40, 4, 3, 0.2, 3)
	lite := liteCopy(t, d, 40)
	if _, err := (&Trainer{}).Train(lite); err == nil {
		t.Fatal("Train accepted a column-only dataset")
	}
}
