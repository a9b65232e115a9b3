package greedy

import (
	"math/rand"
	"testing"

	"metaopt/internal/ml"
	"metaopt/internal/ml/mltest"
	"metaopt/internal/ml/nn"
	"metaopt/internal/ml/tree"
)

// mixed builds a dataset where features 0 and 1 jointly determine the
// label, and the remaining features are noise.
func mixed(n, noiseFeatures int, seed int64) *ml.Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &ml.Dataset{}
	for i := 0; i < 2+noiseFeatures; i++ {
		d.FeatureNames = append(d.FeatureNames, "f")
	}
	for i := 0; i < n; i++ {
		a := rng.Intn(2)
		b := rng.Intn(2)
		label := 1 + a*2 + b
		f := []float64{float64(a) + 0.05*rng.NormFloat64(), float64(b) + 0.05*rng.NormFloat64()}
		for j := 0; j < noiseFeatures; j++ {
			f = append(f, rng.NormFloat64())
		}
		e := ml.Example{Name: "e", Benchmark: "b", Features: f, Label: label}
		for u := 1; u <= ml.NumClasses; u++ {
			e.Cycles[u] = 100000
		}
		d.Examples = append(d.Examples, e)
	}
	return d
}

func TestSelectFindsInformativePair(t *testing.T) {
	d := mixed(200, 4, 1)
	res, err := Select(&nn.Trainer{OneNN: true}, d, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("rounds = %d", len(res))
	}
	got := map[int]bool{res[0].Feature: true, res[1].Feature: true}
	if !got[0] || !got[1] {
		t.Errorf("selected %v, want {0,1}", Features(res))
	}
	// Error must be non-increasing as features accumulate.
	if res[1].Error > res[0].Error+1e-9 {
		t.Errorf("error increased: %v", res)
	}
	// With both informative features, LOO-1NN should be near perfect.
	if res[1].Error > 0.05 {
		t.Errorf("final error = %.3f", res[1].Error)
	}
}

func TestSelectClampsK(t *testing.T) {
	d := mixed(60, 1, 2)
	res, err := Select(&nn.Trainer{OneNN: true}, d, 99)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Errorf("rounds = %d, want 3 (all features)", len(res))
	}
}

func TestFeaturesHelper(t *testing.T) {
	res := []Result{{Feature: 5}, {Feature: 2}}
	f := Features(res)
	if len(f) != 2 || f[0] != 5 || f[1] != 2 {
		t.Errorf("features = %v", f)
	}
}

func TestSelectRejectsBadDataset(t *testing.T) {
	if _, err := Select(&nn.Trainer{}, &ml.Dataset{}, 2); err == nil {
		t.Error("expected error")
	}
}

// noSession delegates to a near-neighbor trainer while hiding its
// SelectScorer interface, forcing Select onto the project-and-retrain path.
type noSession struct{ tr *nn.Trainer }

func (h noSession) Train(d *ml.Dataset) (ml.Classifier, error) { return h.tr.Train(d) }
func (h noSession) LOOCV(d *ml.Dataset) ([]int, error)         { return h.tr.LOOCV(d) }

// TestSessionPathMatchesSubsetPath runs the same selection through the
// incremental session fast path and the per-subset slow path: chosen
// features and reported errors must be exactly equal.
func TestSessionPathMatchesSubsetPath(t *testing.T) {
	d := mixed(160, 6, 5)
	for _, oneNN := range []bool{true, false} {
		tr := &nn.Trainer{OneNN: oneNN}
		fast, err := Select(tr, d, 4)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := Select(noSession{tr}, d, 4)
		if err != nil {
			t.Fatal(err)
		}
		if len(fast) != len(slow) {
			t.Fatalf("oneNN=%v: %d rounds vs %d", oneNN, len(fast), len(slow))
		}
		for i := range fast {
			if fast[i] != slow[i] {
				t.Errorf("oneNN=%v round %d: session %+v, subset %+v", oneNN, i, fast[i], slow[i])
			}
		}
	}
}

// TestSelectColumnBackedMatchesRows runs selection on a dataset with an
// attached column backing and on its rows alone: the near-neighbor
// session, which reads columns, and a decision tree, which scores
// projections, must each choose the same features with the same errors on
// both.
func TestSelectColumnBackedMatchesRows(t *testing.T) {
	d := mltest.Clusters(90, 6, 4, 0.3, 11)
	backed := mltest.Clusters(90, 6, 4, 0.3, 11)
	backed.BuildColumns()
	for name, tr := range map[string]ml.Trainer{"nn": &nn.Trainer{OneNN: true}, "tree": &tree.Trainer{}} {
		want, err := Select(tr, d, 3)
		if err != nil {
			t.Fatalf("%s rows: %v", name, err)
		}
		got, err := Select(tr, backed, 3)
		if err != nil {
			t.Fatalf("%s column-backed: %v", name, err)
		}
		if len(want) != 3 || len(got) != len(want) {
			t.Fatalf("%s: %d rounds on rows, %d column-backed, want 3", name, len(want), len(got))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s round %d: column-backed %+v, rows %+v", name, i, got[i], want[i])
			}
		}
	}
}
