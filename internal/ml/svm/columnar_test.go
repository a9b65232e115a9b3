package svm

import (
	"testing"

	"metaopt/internal/ml"
	"metaopt/internal/ml/mltest"
)

// TestLSSVMColumnarLOOCVMatchesRows pins the Gram matrix of a dataset with
// an attached backing to per-pair RBF.Eval on the normalized rows, and its
// exact LOOCV to the row dataset's, fold by fold.
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
	requireGram(t, "attached", backed, 0, oracleMedianSigma(rows), rows)
	got, err := tr.LOOCV(backed)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fold %d: columnar %d, rows %d", i, got[i], want[i])
		}
	}
}
