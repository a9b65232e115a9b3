package nn

import (
	"testing"

	"metaopt/internal/ml"
	"metaopt/internal/ml/mltest"
)

// attached returns the dataset Clusters builds for the same arguments with
// a column backing attached by BuildColumns.
func attached(t *testing.T, n, dim, classes int, noise float64, seed int64) *ml.Dataset {
	t.Helper()
	d := mltest.Clusters(n, dim, classes, noise, seed)
	d.BuildColumns()
	if d.UsableCols() == nil {
		t.Fatal("BuildColumns did not attach a usable backing")
	}
	return d
}

// TestColumnarLOOCVMatchesRows pins LOOCV on both dataset layouts — rows
// alone and rows with an attached backing — to the oracle, prediction by
// prediction.
func TestColumnarLOOCVMatchesRows(t *testing.T) {
	d := mltest.Clusters(150, 5, 4, 0.25, 7)
	backed := attached(t, 150, 5, 4, 0.25, 7)
	for _, oneNN := range []bool{false, true} {
		tr := &Trainer{OneNN: oneNN}
		want := oracleLOOCV(d, tr.radius(), oneNN)
		for name, ds := range map[string]*ml.Dataset{"rows": d, "attached": backed} {
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

// TestBlockedLOOCVMatchesDense forces the blocked kernel at small n and
// pins it to the oracle on both dataset layouts.
func TestBlockedLOOCVMatchesDense(t *testing.T) {
	d := mltest.Clusters(200, 6, 4, 0.3, 13)
	backed := attached(t, 200, 6, 4, 0.3, 13)
	defer func(old int) { denseRowsCap = old }(denseRowsCap)
	denseRowsCap = 16 // every dataset now takes the blocked path
	for _, tr := range []*Trainer{{}, {OneNN: true}, {Radius: 1e-9}} {
		want := oracleLOOCV(d, tr.radius(), tr.OneNN)
		for name, ds := range map[string]*ml.Dataset{"rows": d, "attached": backed} {
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
// over a dataset with an attached backing, requiring it to score every
// candidate exactly (to the bit) as the oracle LOOCV of the projected
// subset of the rows does, and so to pick the same features.
func TestColumnarSelectMatchesRows(t *testing.T) {
	d := mltest.Clusters(90, 6, 4, 0.3, 11)
	for _, oneNN := range []bool{false, true} {
		tr := &Trainer{OneNN: oneNN}
		sess, err := tr.BeginSelect(attached(t, 90, 6, 4, 0.3, 11))
		if err != nil {
			t.Fatal(err)
		}
		checkRounds(t, "attached", d, tr, sess)
	}
}
