package linalg_test

import (
	"encoding/json"
	"fmt"
	"slices"
	"testing"

	"metaopt/internal/linalg"
	"metaopt/internal/ml"
	"metaopt/internal/ml/mltest"
	"metaopt/internal/ml/svm"
	"metaopt/internal/par"
)

// lssvmRun is what the LS-SVM layer makes of one dataset: a classifier
// and a regressor, marshalled, and the exact leave-one-out predictions of
// both.
type lssvmRun struct {
	classifier, regressor []byte
	loocv, regLOOCV       []int
}

// runLSSVM trains and cross-validates both LS-SVMs on d.
func runLSSVM(t *testing.T, d *ml.Dataset) lssvmRun {
	t.Helper()
	run := func(tr interface {
		ml.Trainer
		ml.LOOCVer
	}) ([]byte, []int) {
		c, err := tr.Train(d)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		preds, err := tr.LOOCV(d)
		if err != nil {
			t.Fatal(err)
		}
		return b, preds
	}
	var out lssvmRun
	out.classifier, out.loocv = run(&svm.LSSVM{})
	out.regressor, out.regLOOCV = run(&svm.Regression{})
	return out
}

// TestLSSVMBitsAtEveryWidth trains the LS-SVM classifier and regressor
// and runs their exact LOOCV over three 128-column panels of the factor,
// on every code path at pool widths 1–3. Each model must marshal to the
// same bytes — every α and b bit for bit — and each LOOCV must predict
// the same labels as on the scalar path with one worker.
func TestLSSVMBitsAtEveryWidth(t *testing.T) {
	d := mltest.Clusters(320, 6, 4, 0.3, 11)
	var want *lssvmRun
	linalg.ForEachLeaf(t, func(t *testing.T) {
		for w := 1; w <= 3; w++ {
			restore := par.SetLimit(w)
			got := runLSSVM(t, d)
			restore()
			if want == nil {
				want = &got
				continue
			}
			name := fmt.Sprintf("pool width %d", w)
			if !slices.Equal(got.classifier, want.classifier) || !slices.Equal(got.regressor, want.regressor) {
				t.Fatalf("%s: a trained model differs from the scalar path's", name)
			}
			if !slices.Equal(got.loocv, want.loocv) || !slices.Equal(got.regLOOCV, want.regLOOCV) {
				t.Fatalf("%s: LOOCV predictions differ from the scalar path's", name)
			}
		}
	})
}
