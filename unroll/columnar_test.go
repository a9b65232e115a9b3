package unroll_test

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"

	"metaopt/unroll"
)

// jsonBytes renders a dataset through the JSON release format — the golden
// reference every other persistence path is compared against.
func jsonBytes(t *testing.T, d *unroll.Dataset) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestColumnarRoundTripMatchesJSON is the golden equivalence test: a
// dataset written columnar and loaded back must re-serialize to the exact
// JSON bytes of the original — names, labels, cycles and every float bit
// survive the binary format.
func TestColumnarRoundTripMatchesJSON(t *testing.T) {
	d := smallDataset(t)
	want := jsonBytes(t, d)

	path := filepath.Join(t.TempDir(), "dataset.cols")
	if err := d.SaveColumnar(path, "seed=1 scale=0.08 runs=5"); err != nil {
		t.Fatal(err)
	}
	got, err := unroll.LoadDatasetFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(jsonBytes(t, got), want) {
		t.Fatal("columnar round trip changed the dataset (JSON golden mismatch)")
	}
}

// TestLoadDatasetFileSniffsFormat: the same entry point must open both the
// JSON release format and the binary columnar format, telling them apart
// by magic bytes.
func TestLoadDatasetFileSniffsFormat(t *testing.T) {
	d := smallDataset(t)
	want := jsonBytes(t, d)
	dir := t.TempDir()

	jsonPath := filepath.Join(dir, "dataset.json")
	if err := os.WriteFile(jsonPath, want, 0o644); err != nil {
		t.Fatal(err)
	}
	colPath := filepath.Join(dir, "dataset.cols")
	if err := d.SaveColumnar(colPath, ""); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{jsonPath, colPath} {
		got, err := unroll.LoadDatasetFile(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if !bytes.Equal(jsonBytes(t, got), want) {
			t.Fatalf("%s: loaded dataset differs from original", path)
		}
	}
}

// TestOpenDatasetColumnarOutOfCore cross-validates straight off the mapped
// file — feature rows never materialized — and requires bit-identical
// evaluation results to the in-memory row path.
func TestOpenDatasetColumnarOutOfCore(t *testing.T) {
	d := smallDataset(t)
	path := filepath.Join(t.TempDir(), "dataset.cols")
	if err := d.SaveColumnar(path, ""); err != nil {
		t.Fatal(err)
	}
	lite, closeDS, err := unroll.OpenDatasetColumnar(path)
	if err != nil {
		t.Fatal(err)
	}
	defer closeDS()
	if lite.Len() != d.Len() {
		t.Fatalf("out-of-core Len = %d, want %d", lite.Len(), d.Len())
	}
	for _, alg := range []unroll.Algorithm{unroll.NearNeighbor, unroll.LSSVM} {
		opt := unroll.TrainOptions{Algorithm: alg}
		want, err := unroll.Evaluate(d, opt)
		if err != nil {
			t.Fatal(err)
		}
		got, err := unroll.Evaluate(lite, opt)
		if err != nil {
			t.Fatalf("%s out of core: %v", alg, err)
		}
		if got.RankFrac != want.RankFrac {
			t.Fatalf("%s: out-of-core rank table %v, in-memory %v", alg, got.RankFrac, want.RankFrac)
		}
	}
}

// columnOnly writes the small dataset columnar and opens the file twice:
// mapped without feature rows, and loaded into memory.
func columnOnly(t *testing.T) (lite, mem *unroll.Dataset) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "dataset.cols")
	if err := smallDataset(t).SaveColumnar(path, ""); err != nil {
		t.Fatal(err)
	}
	lite, closeDS, err := unroll.OpenDatasetColumnar(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { closeDS() })
	if mem, err = unroll.LoadDatasetFile(path); err != nil {
		t.Fatal(err)
	}
	return lite, mem
}

// TestColumnOnlyTrainEvaluate: on a column-only dataset every algorithm's
// Train refuses with an error, and Evaluate either refuses or renders
// exactly the report of the in-memory load of the same file.
func TestColumnOnlyTrainEvaluate(t *testing.T) {
	lite, mem := columnOnly(t)
	for _, alg := range []unroll.Algorithm{
		unroll.NearNeighbor, unroll.LSSVM, unroll.LSSVMECOC, unroll.SMOSVM,
		unroll.Regress, unroll.DecisionTree, unroll.BoostedTree,
	} {
		opt := unroll.TrainOptions{Algorithm: alg}
		if _, err := unroll.Train(lite, opt); err == nil {
			t.Errorf("%s: Train accepted a column-only dataset", alg)
		}
		got, err := unroll.Evaluate(lite, opt)
		if err != nil {
			continue
		}
		want, err := unroll.Evaluate(mem, opt)
		if err != nil {
			t.Fatalf("%s in memory: %v", alg, err)
		}
		if got.Render() != want.Render() {
			t.Errorf("%s: column-only report\n%s\nin-memory report\n%s", alg, got.Render(), want.Render())
		}
	}
}

// TestSelectFeaturesRefusesColumnOnly: feature selection reads rows, so a
// column-only dataset is an error, not an empty selection.
func TestSelectFeaturesRefusesColumnOnly(t *testing.T) {
	lite, _ := columnOnly(t)
	if feats, err := unroll.SelectFeatures(lite, 1); err == nil {
		t.Fatalf("SelectFeatures accepted a column-only dataset and chose %v", feats)
	}
}

// TestSaveCSVRefusesColumnOnly: CSV rows carry every feature, so a
// column-only dataset is refused, as the JSON Save refuses it.
func TestSaveCSVRefusesColumnOnly(t *testing.T) {
	lite, _ := columnOnly(t)
	if err := lite.SaveCSV(io.Discard); err == nil {
		t.Fatal("SaveCSV accepted a column-only dataset")
	}
}
