package unroll_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"metaopt/unroll"
)

const daxpy = `
kernel daxpy lang=c {
	param double a;
	double x[], y[];
	noalias;
	for i = 0 .. 4096 { y[i] = y[i] + a * x[i]; }
}`

func smallDataset(t *testing.T) *unroll.Dataset {
	t.Helper()
	c, err := unroll.GenerateCorpus(5, 0.08)
	if err != nil {
		t.Fatal(err)
	}
	d, err := unroll.CollectDataset(c, unroll.CollectOptions{Seed: 1, Runs: 5})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestParseAndFeatures(t *testing.T) {
	l, err := unroll.ParseKernel(daxpy)
	if err != nil {
		t.Fatal(err)
	}
	v := unroll.Features(l, unroll.Itanium2())
	if len(v) != unroll.NumFeatures {
		t.Fatalf("features = %d", len(v))
	}
	names := unroll.FeatureNames()
	if len(names) != unroll.NumFeatures {
		t.Fatalf("names = %d", len(names))
	}
	if idx := unroll.FeatureIndex("tripcount"); idx < 0 || v[idx] != 4096 {
		t.Errorf("tripcount feature = %v at %d", v[idx], idx)
	}
	if unroll.FeatureIndex("nonexistent") != -1 {
		t.Error("FeatureIndex should return -1")
	}
}

func TestParseFileMultiple(t *testing.T) {
	loops, err := unroll.ParseFile(daxpy + `
kernel second lang=fortran { double z[]; for i = 0 .. 64 { z[i] = z[i] * 2.0; } }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(loops) != 2 {
		t.Fatalf("loops = %d", len(loops))
	}
}

func TestUnrollLoopAPI(t *testing.T) {
	l, err := unroll.ParseKernel(daxpy)
	if err != nil {
		t.Fatal(err)
	}
	u4, err := unroll.UnrollLoop(l, 4)
	if err != nil {
		t.Fatal(err)
	}
	if u4.NumOps() <= l.NumOps() {
		t.Errorf("unrolled ops = %d vs %d", u4.NumOps(), l.NumOps())
	}
	if _, err := unroll.UnrollLoop(l, 0); err == nil {
		t.Error("expected error for factor 0")
	}
}

func TestTimerAndBest(t *testing.T) {
	l, err := unroll.ParseKernel(daxpy)
	if err != nil {
		t.Fatal(err)
	}
	tm := unroll.NewTimer(unroll.Itanium2(), false)
	t1, err := tm.Time(l, 1)
	if err != nil {
		t.Fatal(err)
	}
	if t1.Cycles <= 0 || t1.PerIter <= 0 || t1.Pipelined {
		t.Errorf("timing = %+v", t1)
	}
	best, timings, err := tm.Best(l)
	if err != nil {
		t.Fatal(err)
	}
	if best < 2 {
		t.Errorf("daxpy best factor = %d, expected meaningful unrolling", best)
	}
	if timings[best].Cycles > timings[1].Cycles {
		t.Error("best factor costs more than rolled")
	}
	if _, err := tm.Time(l, 99); err == nil {
		t.Error("expected range error")
	}
	// Pipelined mode reports II.
	tp := unroll.NewTimer(unroll.Itanium2(), true)
	ts, err := tp.Time(l, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !ts.Pipelined || ts.II < 1 {
		t.Errorf("swp timing = %+v", ts)
	}
}

func TestHeuristicAPI(t *testing.T) {
	l, err := unroll.ParseKernel(daxpy)
	if err != nil {
		t.Fatal(err)
	}
	for _, swp := range []bool{false, true} {
		u := unroll.Heuristic(l, unroll.Itanium2(), swp)
		if u < 1 || u > unroll.MaxFactor {
			t.Errorf("heuristic(swp=%v) = %d", swp, u)
		}
	}
}

func TestTrainPredictAllAlgorithms(t *testing.T) {
	d := smallDataset(t)
	l, err := unroll.ParseKernel(daxpy)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []unroll.Algorithm{
		unroll.NearNeighbor, unroll.LSSVM, unroll.LSSVMECOC, unroll.SMOSVM,
		unroll.Regress, unroll.DecisionTree, unroll.BoostedTree,
	} {
		p, err := unroll.Train(d, unroll.TrainOptions{Algorithm: alg})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		u := p.Predict(l)
		if u < 1 || u > unroll.MaxFactor {
			t.Errorf("%s predicted %d", alg, u)
		}
	}
	if _, err := unroll.Train(d, unroll.TrainOptions{Algorithm: "bogus"}); err == nil {
		t.Error("expected unknown-algorithm error")
	}
}

func TestConfidenceOnlyForNN(t *testing.T) {
	d := smallDataset(t)
	l, err := unroll.ParseKernel(daxpy)
	if err != nil {
		t.Fatal(err)
	}
	pNN, err := unroll.Train(d, unroll.TrainOptions{Algorithm: unroll.NearNeighbor})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := pNN.Confidence(l); !ok {
		t.Error("NN predictor should report confidence")
	}
	pSVM, err := unroll.Train(d, unroll.TrainOptions{Algorithm: unroll.LSSVM})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := pSVM.Confidence(l); ok {
		t.Error("SVM predictor should not claim NN confidence")
	}
}

func TestSelectFeaturesAndTrainDefault(t *testing.T) {
	d := smallDataset(t)
	feats, err := unroll.SelectFeatures(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(feats) < 3 {
		t.Fatalf("selected features = %v", feats)
	}
	p, err := unroll.Train(d, unroll.TrainOptions{Algorithm: unroll.LSSVM, Features: feats})
	if err != nil {
		t.Fatal(err)
	}
	l, _ := unroll.ParseKernel(daxpy)
	if u := p.Predict(l); u < 1 || u > unroll.MaxFactor {
		t.Errorf("predicted %d", u)
	}
}

func TestCrossValidate(t *testing.T) {
	d := smallDataset(t)
	accNN, err := unroll.CrossValidate(d, unroll.TrainOptions{Algorithm: unroll.NearNeighbor})
	if err != nil {
		t.Fatal(err)
	}
	if accNN <= 0.2 || accNN > 1 {
		t.Errorf("NN LOOCV accuracy = %v", accNN)
	}
	if _, err := unroll.CrossValidate(d, unroll.TrainOptions{Algorithm: "bogus"}); err == nil {
		t.Error("expected unknown-algorithm error")
	}
}

func TestDatasetSaveLoadRoundTrip(t *testing.T) {
	d := smallDataset(t)
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "dataset.json")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	d2, err := unroll.LoadDatasetFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The loaded dataset saves back to the same bytes: names, labels,
	// cycles and every feature bit survive the JSON format.
	var again bytes.Buffer
	if err := d2.Save(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), buf.Bytes()) {
		t.Fatal("JSON round trip changed the dataset")
	}
	if d2.Len() != d.Len() {
		t.Fatalf("round trip: %d vs %d", d2.Len(), d.Len())
	}
	a, b := d.Labels(), d2.Labels()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("label %d differs", i)
		}
	}
	// A loaded dataset must train.
	if _, err := unroll.Train(d2, unroll.TrainOptions{}); err != nil {
		t.Fatal(err)
	}
}

func TestLoadDatasetRejectsGarbage(t *testing.T) {
	if _, err := unroll.LoadDataset(bytes.NewBufferString("{not json")); err == nil {
		t.Error("expected decode error")
	}
	// Factor 8 runs in the fewest cycles, so these rows are labeled 8.
	const eight = `[9,8,7,6,5,4,3,2]`
	for _, bad := range []string{
		`{"examples":[{"label":99,"features":[1],"cycles":` + eight + `}]}`,
		`{"examples":[{"label":8,"cycles":` + eight + `}]}`,
	} {
		if _, err := unroll.LoadDataset(bytes.NewBufferString(bad)); err == nil {
			t.Errorf("expected validation error for %s", bad)
		}
	}
	// Every example carries one positive cycle count per unroll factor (a
	// short list would leave zero cycles behind, a long one would be cut),
	// and its label is the best factor of its cycles: the smallest factor
	// among those with the fewest cycles.
	for name, row := range map[string]string{
		"missing":            `"label":1`,
		"empty":              `"label":1,"cycles":[]`,
		"short":              `"label":1,"cycles":[9,8,7]`,
		"long":               `"label":1,"cycles":[9,8,7,6,5,4,3,2,1,1,1]`,
		"zero":               `"label":1,"cycles":[0,0,0,0,0,0,0,0]`,
		"negative":           `"label":8,"cycles":[9,8,7,6,5,4,3,-2]`,
		"not best":           `"label":1,"cycles":` + eight,
		"not the first best": `"label":8,"cycles":[9,8,7,2,5,4,3,2]`,
	} {
		src := `{"examples":[` +
			`{"name":"a","benchmark":"b","label":8,"features":[1],"cycles":` + eight + `},` +
			`{"name":"L007","benchmark":"swim","features":[2],` + row + `}]}`
		_, err := unroll.LoadDataset(bytes.NewBufferString(src))
		if err == nil {
			t.Errorf("%s: loaded without error", name)
		} else if !strings.Contains(err.Error(), "swim/L007") {
			t.Errorf("%s: error %q does not name the example", name, err)
		}
	}
	// The same two rows load once the second is labeled as its cycles say.
	good := `{"examples":[` +
		`{"name":"a","benchmark":"b","label":8,"features":[1],"cycles":` + eight + `},` +
		`{"name":"L007","benchmark":"swim","features":[2],"label":4,"cycles":[9,8,7,2,5,4,3,2]}]}`
	if _, err := unroll.LoadDataset(bytes.NewBufferString(good)); err != nil {
		t.Errorf("a well-formed dataset: %v", err)
	}
}

func TestRegressionBeatsChance(t *testing.T) {
	d := smallDataset(t)
	acc, err := unroll.CrossValidate(d, unroll.TrainOptions{Algorithm: unroll.Regress})
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.2 {
		t.Errorf("regression LOOCV accuracy = %v", acc)
	}
}

func TestEvaluate(t *testing.T) {
	d := smallDataset(t)
	ev, err := unroll.Evaluate(d, unroll.TrainOptions{Algorithm: unroll.NearNeighbor})
	if err != nil {
		t.Fatal(err)
	}
	if ev.Examples != d.Len() {
		t.Errorf("examples = %d", ev.Examples)
	}
	var sum float64
	for _, f := range ev.RankFrac {
		sum += f
	}
	if sum < 0.99 || sum > 1.01 {
		t.Errorf("rank fractions sum to %v", sum)
	}
	if ev.Accuracy() != ev.RankFrac[0] {
		t.Error("Accuracy mismatch")
	}
	if ev.Confusion == nil || ev.Confusion.Total != d.Len() {
		t.Error("confusion matrix missing")
	}
	out := ev.Render()
	for _, want := range []string{"optimal", "worst", "recall", "overall accuracy"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
	if _, err := unroll.Evaluate(d, unroll.TrainOptions{Algorithm: "bogus"}); err == nil {
		t.Error("expected unknown-algorithm error")
	}
}
