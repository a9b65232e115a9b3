package svm

import (
	"testing"

	"metaopt/internal/ml"
	"metaopt/internal/ml/mltest"
)

// liteCopy strips feature rows and attaches a chunked column backing — the
// shape the mmap'd colstore reader serves for out-of-core LOOCV.
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
		"lite one chunk":   liteCopy(t, d, 80),
		"lite multi chunk": liteCopy(t, d, 19),
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
	if _, err := (&LSSVM{}).Train(liteCopy(t, d, 30)); err == nil {
		t.Fatal("Train accepted a column-only dataset")
	}
}
