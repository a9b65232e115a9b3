package ml_test

import (
	"math"
	"testing"

	"metaopt/internal/ml"
	"metaopt/internal/ml/mltest"
)

func TestDatasetValidate(t *testing.T) {
	d := mltest.Clusters(40, 5, 4, 0.1, 1)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := &ml.Dataset{Examples: []ml.Example{{Features: []float64{1}, Label: 9}}}
	if err := bad.Validate(); err == nil {
		t.Error("expected bad-label error")
	}
	empty := &ml.Dataset{}
	if err := empty.Validate(); err == nil {
		t.Error("expected empty error")
	}
	ragged := &ml.Dataset{Examples: []ml.Example{
		{Features: []float64{1, 2}, Label: 1},
		{Features: []float64{1}, Label: 2},
	}}
	if err := ragged.Validate(); err == nil {
		t.Error("expected ragged error")
	}
}

func TestSelectProjectsFeatures(t *testing.T) {
	d := mltest.Clusters(10, 6, 3, 0.1, 2)
	s := d.Select([]int{4, 0})
	if len(s.Examples[0].Features) != 2 {
		t.Fatalf("features = %d", len(s.Examples[0].Features))
	}
	if s.Examples[3].Features[0] != d.Examples[3].Features[4] {
		t.Error("projection order wrong")
	}
	if s.FeatureNames[0] != "f4" || s.FeatureNames[1] != "f0" {
		t.Errorf("names = %v", s.FeatureNames)
	}
	if s.Examples[5].Label != d.Examples[5].Label {
		t.Error("labels lost")
	}
}

func TestWithoutBenchmark(t *testing.T) {
	d := mltest.Clusters(60, 4, 4, 0.1, 3)
	train, test := d.WithoutBenchmark("bench2")
	if test.Len() == 0 || train.Len() == 0 {
		t.Fatal("split degenerate")
	}
	if train.Len()+test.Len() != d.Len() {
		t.Error("split loses examples")
	}
	for _, e := range test.Examples {
		if e.Benchmark != "bench2" {
			t.Error("test split has foreign example")
		}
	}
	for _, e := range train.Examples {
		if e.Benchmark == "bench2" {
			t.Error("train split leaks the held-out benchmark")
		}
	}
}

func TestWithout(t *testing.T) {
	d := mltest.Clusters(5, 3, 2, 0.1, 4)
	w := d.Without(2)
	if w.Len() != 4 {
		t.Fatalf("len = %d", w.Len())
	}
	if w.Examples[2].Name != d.Examples[3].Name {
		t.Error("wrong example removed")
	}
}

func TestNormMapsToUnitRange(t *testing.T) {
	d := mltest.Clusters(50, 4, 4, 0.3, 5)
	n := ml.FitNorm(d.Columns())
	rows := n.ApplyAll(d)
	for _, r := range rows {
		for j, v := range r {
			if v < -1e-9 || v > 1+1e-9 {
				t.Fatalf("normalized value %v at feature %d", v, j)
			}
		}
	}
}

func TestNormConstantFeature(t *testing.T) {
	d := &ml.Dataset{Examples: []ml.Example{
		{Features: []float64{7, 1}, Label: 1},
		{Features: []float64{7, 3}, Label: 2},
	}}
	n := ml.FitNorm(d.Columns())
	v := n.Apply([]float64{7, 2})
	if v[0] != 0 {
		t.Errorf("constant feature normalized to %v", v[0])
	}
	// Values pass through a signed log before min-max scaling:
	// (ln 3 − ln 2) / (ln 4 − ln 2).
	want := (math.Log(3) - math.Log(2)) / (math.Log(4) - math.Log(2))
	if math.Abs(v[1]-want) > 1e-12 {
		t.Errorf("feature 1 = %v, want %v", v[1], want)
	}
	// Training min and max map to the ends of the unit interval.
	ends := n.Apply([]float64{7, 1})
	if ends[1] != 0 {
		t.Errorf("min maps to %v", ends[1])
	}
	ends = n.Apply([]float64{7, 3})
	if ends[1] != 1 {
		t.Errorf("max maps to %v", ends[1])
	}
}

type constClassifier int

func (c constClassifier) Predict([]float64) int { return int(c) }

type constTrainer int

func (c constTrainer) Train(*ml.Dataset) (ml.Classifier, error) {
	return constClassifier(c), nil
}

func TestGenericLOOCVAndAccuracy(t *testing.T) {
	d := mltest.Clusters(12, 3, 3, 0.1, 6)
	preds, err := ml.LOOCV(constTrainer(2), d)
	if err != nil {
		t.Fatal(err)
	}
	acc := ml.Accuracy(d, preds)
	want := float64(12/3) / 12 // labels cycle 1,2,3: a third are 2
	if acc != want {
		t.Errorf("accuracy = %v, want %v", acc, want)
	}
}

func TestRankAndCost(t *testing.T) {
	e := ml.Example{Label: 2}
	for u := 1; u <= ml.NumClasses; u++ {
		e.Cycles[u] = int64(1000 + 100*absInt(u-2))
	}
	if r := ml.Rank(&e, 2); r != 1 {
		t.Errorf("rank of optimal = %d", r)
	}
	if r := ml.Rank(&e, 8); r != ml.NumClasses {
		t.Errorf("rank of worst = %d", r)
	}
	if c := ml.Cost(&e, 2); c != 1 {
		t.Errorf("cost of optimal = %v", c)
	}
	if c := ml.Cost(&e, 8); c <= 1 {
		t.Errorf("cost of worst = %v", c)
	}
}

func TestRankTableSumsToOne(t *testing.T) {
	d := mltest.Clusters(40, 4, 4, 0.2, 7)
	preds := make([]int, d.Len())
	for i := range preds {
		preds[i] = 1 + i%ml.NumClasses
	}
	frac, _ := ml.RankTable(d, preds)
	var sum float64
	for _, f := range frac {
		sum += f
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("rank fractions sum to %v", sum)
	}
}

func TestCostByRankMonotone(t *testing.T) {
	d := mltest.Clusters(60, 4, 4, 0.2, 8)
	cost := ml.CostByRank(d)
	if cost[0] != 1 {
		t.Errorf("optimal cost = %v, want 1", cost[0])
	}
	for r := 1; r < ml.NumClasses; r++ {
		if cost[r] < cost[r-1]-1e-9 {
			t.Errorf("cost not monotone at rank %d: %v", r, cost)
		}
	}
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestConfusionMatrix(t *testing.T) {
	d := mltest.Clusters(40, 4, 4, 0.2, 9)
	preds := make([]int, d.Len())
	for i := range preds {
		preds[i] = d.Examples[i].Label // perfect predictions
	}
	c := ml.NewConfusion(d, preds)
	if c.Accuracy() != 1 {
		t.Errorf("perfect accuracy = %v", c.Accuracy())
	}
	for lab := 1; lab <= 4; lab++ {
		if r := c.Recall(lab); r != 1 {
			t.Errorf("recall[%d] = %v", lab, r)
		}
	}
	// All-wrong predictions.
	for i := range preds {
		preds[i] = 1 + d.Examples[i].Label%ml.NumClasses
	}
	c = ml.NewConfusion(d, preds)
	if c.Accuracy() != 0 {
		t.Errorf("all-wrong accuracy = %v", c.Accuracy())
	}
	// Out-of-range predictions clamp to label 1 rather than panicking.
	preds[0] = 99
	c = ml.NewConfusion(d, preds)
	if c.Total != d.Len() {
		t.Errorf("total = %d", c.Total)
	}
	if s := c.String(); len(s) == 0 {
		t.Error("empty confusion render")
	}
	empty := &ml.Confusion{}
	if empty.Recall(3) != 0 {
		t.Error("recall of empty class should be 0")
	}
}
