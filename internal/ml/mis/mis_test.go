package mis

import (
	"math"
	"math/rand"
	"testing"

	"metaopt/internal/ml"
	"metaopt/internal/ml/mltest"
)

// buildMixed creates a dataset where feature 0 fully determines the label,
// feature 1 is correlated, and feature 2 is pure noise.
func buildMixed(n int, seed int64) *ml.Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &ml.Dataset{FeatureNames: []string{"exact", "correlated", "noise"}}
	for i := 0; i < n; i++ {
		label := 1 + rng.Intn(4)
		f := []float64{
			float64(label),
			float64(label) + 2*rng.NormFloat64(),
			rng.NormFloat64(),
		}
		e := ml.Example{Name: "e", Benchmark: "b", Features: f, Label: label}
		for u := 1; u <= ml.NumClasses; u++ {
			e.Cycles[u] = 100000
		}
		d.Examples = append(d.Examples, e)
	}
	return d
}

func TestScoresOrderInformativeness(t *testing.T) {
	d := buildMixed(400, 1)
	s := Scores(d, 8)
	if len(s) != 3 {
		t.Fatalf("scores = %v", s)
	}
	if !(s[0] > s[1] && s[1] > s[2]) {
		t.Errorf("MIS ordering wrong: exact=%.3f corr=%.3f noise=%.3f", s[0], s[1], s[2])
	}
	// A perfectly informative feature of a uniform 4-class label carries
	// about 2 bits.
	if s[0] < 1.5 {
		t.Errorf("exact feature score = %.3f, want near 2 bits", s[0])
	}
	if s[2] > 0.2 {
		t.Errorf("noise feature score = %.3f, want near 0", s[2])
	}
}

func TestRankAndTop(t *testing.T) {
	d := buildMixed(300, 2)
	ranked := Rank(d, 0)
	if ranked[0].Feature != 0 {
		t.Errorf("top feature = %d", ranked[0].Feature)
	}
	top2 := Top(d, 0, 2)
	if len(top2) != 2 || top2[0] != 0 || top2[1] != 1 {
		t.Errorf("top2 = %v", top2)
	}
	if got := Top(d, 0, 99); len(got) != 3 {
		t.Errorf("Top clamps to %d", len(got))
	}
}

func TestScoresNonNegative(t *testing.T) {
	d := mltest.Clusters(100, 6, 4, 0.5, 3)
	for _, s := range Scores(d, 0) {
		if s < 0 {
			t.Errorf("negative MIS %v", s)
		}
	}
}

func TestEmptyDataset(t *testing.T) {
	if s := Scores(&ml.Dataset{}, 0); s != nil {
		t.Errorf("scores of empty = %v", s)
	}
}

// TestScoresRepeatable pins Table 3's input: repeated calls on one dataset
// return the same score bits.
func TestScoresRepeatable(t *testing.T) {
	d := mltest.Clusters(400, 6, ml.NumClasses, 1.5, 5)
	want := Scores(d, 0)
	for call := 0; call < 20; call++ {
		for f, s := range Scores(d, 0) {
			if math.Float64bits(s) != math.Float64bits(want[f]) {
				t.Fatalf("call %d: feature %d scored %v, first call %v", call, f, s, want[f])
			}
		}
	}
}
