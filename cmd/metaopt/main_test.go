package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"metaopt/internal/atomicio"
	"metaopt/internal/faults"
	"metaopt/internal/serve"
	"metaopt/unroll"
)

func TestMachByName(t *testing.T) {
	for _, name := range []string{"", "itanium2", "embedded2", "wide8"} {
		m, err := machByName(name)
		if err != nil || m == nil {
			t.Errorf("machByName(%q): %v", name, err)
		}
	}
	if _, err := machByName("vax"); err == nil {
		t.Error("expected error for unknown machine")
	}
}

func TestLoadLoops(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "k.loop")
	src := `kernel k lang=c { double a[]; for i = 0 .. 16 { a[i] = a[i] + 1.0; } }`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	loops, err := loadLoops(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(loops) != 1 || loops[0].Name != "k" {
		t.Errorf("loops = %v", loops)
	}
	if _, err := loadLoops(filepath.Join(dir, "missing.loop")); err == nil {
		t.Error("expected error for missing file")
	}
	bad := filepath.Join(dir, "bad.loop")
	if err := os.WriteFile(bad, []byte("kernel {"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadLoops(bad); err == nil {
		t.Error("expected parse error")
	}
}

func TestObtainPredictorModelPathErrors(t *testing.T) {
	if _, err := obtainPredictor("/nonexistent/model.json", "nn", nil, 1); err == nil {
		t.Error("expected error for missing model file")
	}
	dir := t.TempDir()
	garbage := filepath.Join(dir, "model.json")
	if err := os.WriteFile(garbage, []byte("{oops"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := obtainPredictor(garbage, "nn", nil, 1); err == nil {
		t.Error("expected error for garbage model file")
	}
}

// testDatasetFile collects a tiny labeled dataset and saves it as JSON.
func testDatasetFile(t *testing.T) string {
	t.Helper()
	c, err := unroll.GenerateCorpus(5, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := unroll.CollectDataset(c, unroll.CollectOptions{Seed: 1, Runs: 3})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "dataset.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func writeLoopFile(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "k.loop")
	src := `kernel k lang=c { double a[], b[]; noalias; for i = 0 .. 1024 { a[i] = a[i] + b[i]; } }`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestTrainFlagValidation(t *testing.T) {
	if err := cmdTrain(nil); err == nil || !strings.Contains(err.Error(), "-o") {
		t.Errorf("train without -o: %v", err)
	}
	if err := cmdTrain([]string{"-o", "x.json", "-data", "/nonexistent.json"}); err == nil {
		t.Error("expected error for missing dataset")
	}
	if err := cmdTrain([]string{"-o", "x.json", "stray-operand"}); err == nil {
		t.Error("expected error for stray operand")
	}
}

// Train once, predict many: the artifact round-trips through the
// versioned format and predict -model never retrains.
func TestTrainPredictModelRoundTrip(t *testing.T) {
	data := testDatasetFile(t)
	model := filepath.Join(t.TempDir(), "model.json")
	if err := cmdTrain([]string{"-data", data, "-alg", "nn", "-select=false", "-o", model}); err != nil {
		t.Fatalf("train: %v", err)
	}
	blob, err := os.ReadFile(model)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(blob, []byte(`"version"`)) || !bytes.Contains(blob, []byte(`"fingerprint"`)) {
		t.Error("artifact is missing version/fingerprint fields")
	}
	loopFile := writeLoopFile(t)
	if err := cmdPredict([]string{"-model", model, loopFile}); err != nil {
		t.Fatalf("predict -model: %v", err)
	}
	// predict never trains: with neither -model nor -remote it refuses.
	if err := cmdPredict([]string{loopFile}); err == nil || !strings.Contains(err.Error(), "-model") {
		t.Errorf("predict without a model: %v", err)
	}

	// An artifact claiming a future format version is rejected with an
	// actionable error, not silently misread.
	future := bytes.Replace(blob, []byte(`"version": 1`), []byte(`"version": 99`), 1)
	if bytes.Equal(future, blob) {
		t.Fatal("version field not found for bumping")
	}
	futurePath := filepath.Join(t.TempDir(), "future.json")
	if err := os.WriteFile(futurePath, future, 0o644); err != nil {
		t.Fatal(err)
	}
	err = cmdPredict([]string{"-model", futurePath, loopFile})
	if err == nil || !strings.Contains(err.Error(), "v99") {
		t.Errorf("future artifact: %v", err)
	}
}

// A train run torn mid-write over an existing artifact fails and leaves
// the previous artifact loadable: the write is atomic.
func TestTrainTornWriteKeepsOldArtifact(t *testing.T) {
	defer faults.Reset()
	data := testDatasetFile(t)
	model := filepath.Join(t.TempDir(), "model.json")
	if err := cmdTrain([]string{"-data", data, "-alg", "nn", "-select=false", "-o", model}); err != nil {
		t.Fatalf("train: %v", err)
	}
	old, err := unroll.LoadPredictorFile(model)
	if err != nil {
		t.Fatal(err)
	}
	faults.MustInstall(faults.Spec{Site: atomicio.WriteSite, Kind: faults.KindTorn, Bytes: 64, Count: 1})
	if err := cmdTrain([]string{"-data", data, "-alg", "tree", "-select=false", "-o", model}); err == nil {
		t.Fatal("train over a torn write reported success")
	}
	faults.Reset()
	p, err := unroll.LoadPredictorFile(model)
	if err != nil {
		t.Fatalf("previous artifact no longer loads: %v", err)
	}
	if p.Fingerprint() != old.Fingerprint() {
		t.Errorf("artifact fingerprint %.12s, want the previous %.12s", p.Fingerprint(), old.Fingerprint())
	}
}

// predict -remote queries a running unrolld service.
func TestPredictRemote(t *testing.T) {
	c, err := unroll.GenerateCorpus(5, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := unroll.CollectDataset(c, unroll.CollectOptions{Seed: 1, Runs: 3})
	if err != nil {
		t.Fatal(err)
	}
	pred, err := unroll.Train(ds, unroll.TrainOptions{Algorithm: unroll.NearNeighbor})
	if err != nil {
		t.Fatal(err)
	}
	s, err := serve.New(serve.Config{Model: pred})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	loopFile := writeLoopFile(t)
	if err := cmdPredict([]string{"-remote", "http://" + addr, loopFile}); err != nil {
		t.Fatalf("predict -remote: %v", err)
	}
	if err := cmdPredict([]string{"-remote", "http://" + addr, "-model", "x", loopFile}); err == nil {
		t.Error("expected -remote/-model conflict error")
	}
}

func TestCommandArgValidation(t *testing.T) {
	// Every file-taking subcommand rejects a missing operand.
	for name, fn := range map[string]func([]string) error{
		"features":  cmdFeatures,
		"sweep":     cmdSweep,
		"heuristic": cmdHeuristic,
		"schedule":  cmdSchedule,
		"dot":       cmdDot,
	} {
		if err := fn(nil); err == nil {
			t.Errorf("%s: expected usage error with no arguments", name)
		}
	}
}
