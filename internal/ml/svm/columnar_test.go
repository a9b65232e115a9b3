package svm

import (
	"testing"

	"metaopt/internal/ml"
	"metaopt/internal/ml/mltest"
)

// TestLSSVMColumnarLOOCVMatchesRows pins the Gram matrix of every dataset
// layout — rows with an attached backing, and a column-only dataset in one
// chunk and in many — to per-pair RBF.Eval on the normalized rows, and the
// exact LOOCV on each layout to the row dataset's, fold by fold.
func TestLSSVMColumnarLOOCVMatchesRows(t *testing.T) {
	d := mltest.Clusters(80, 5, 4, 0.3, 17)
	rows := ml.FitNorm(d.Columns()).ApplyAll(d)
	tr := &LSSVM{}
	want, err := tr.LOOCV(d)
	if err != nil {
		t.Fatal(err)
	}
	backed := mltest.Clusters(80, 5, 4, 0.3, 17)
	backed.BuildColumns()
	for name, ds := range map[string]*ml.Dataset{
		"attached":         backed,
		"lite one chunk":   mltest.ColumnOnly(d, 80),
		"lite multi chunk": mltest.ColumnOnly(d, 19),
	} {
		requireGram(t, name, ds, 0, oracleMedianSigma(rows), rows)
		got, err := tr.LOOCV(ds)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s fold %d: columnar %d, rows %d", name, i, got[i], want[i])
			}
		}
	}
}

// TestLSSVMTrainRejectsColumnOnly documents the serving restriction.
func TestLSSVMTrainRejectsColumnOnly(t *testing.T) {
	d := mltest.Clusters(30, 4, 3, 0.2, 3)
	if _, err := (&LSSVM{}).Train(mltest.ColumnOnly(d, 30)); err == nil {
		t.Fatal("Train accepted a column-only dataset")
	}
}
