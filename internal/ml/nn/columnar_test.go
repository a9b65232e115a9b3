package nn

import (
	"testing"

	"metaopt/internal/ml"
	"metaopt/internal/ml/mltest"
)

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
			"lite one chunk":   mltest.ColumnOnly(d, 150),
			"lite multi chunk": mltest.ColumnOnly(d, 33),
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
			"lite one chunk":   mltest.ColumnOnly(d, 200),
			"lite multi chunk": mltest.ColumnOnly(d, 47),
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

// TestColumnarSelectMatchesRows drives every greedy round of a session
// over a column-only dataset in chunks, requiring it to score every
// candidate exactly (to the bit) as the oracle LOOCV of the projected
// subset of the rows does, and so to pick the same features.
func TestColumnarSelectMatchesRows(t *testing.T) {
	d := mltest.Clusters(90, 6, 4, 0.3, 11)
	for _, oneNN := range []bool{false, true} {
		tr := &Trainer{OneNN: oneNN}
		sess, err := tr.BeginSelect(mltest.ColumnOnly(d, 29))
		if err != nil {
			t.Fatal(err)
		}
		checkRounds(t, "column-only", d, tr, sess)
	}
}

// TestTrainRejectsColumnOnly documents the serving restriction: a classifier
// that answers arbitrary queries needs materialized rows.
func TestTrainRejectsColumnOnly(t *testing.T) {
	d := mltest.Clusters(40, 4, 3, 0.2, 3)
	lite := mltest.ColumnOnly(d, 40)
	if _, err := (&Trainer{}).Train(lite); err == nil {
		t.Fatal("Train accepted a column-only dataset")
	}
}
