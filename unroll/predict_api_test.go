package unroll_test

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"metaopt/internal/obs"
	"metaopt/unroll"
)

func TestPredictCtxMatchesPredict(t *testing.T) {
	d := smallDataset(t)
	p, err := unroll.Train(d, unroll.TrainOptions{Algorithm: unroll.LSSVM})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queryLoops(t) {
		u, err := p.PredictCtx(context.Background(), q)
		if err != nil {
			t.Fatalf("PredictCtx(%s): %v", q.Name, err)
		}
		if legacy := p.Predict(q); u != legacy {
			t.Errorf("%s: PredictCtx %d != Predict %d", q.Name, u, legacy)
		}
	}
}

func TestPredictCtxErrors(t *testing.T) {
	d := smallDataset(t)
	p, err := unroll.Train(d, unroll.TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.PredictCtx(context.Background(), nil); err != unroll.ErrNilLoop {
		t.Errorf("nil loop: err = %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.PredictCtx(ctx, queryLoops(t)[0]); err != context.Canceled {
		t.Errorf("canceled ctx: err = %v", err)
	}
}

func TestPredictBatch(t *testing.T) {
	d := smallDataset(t)
	p, err := unroll.Train(d, unroll.TrainOptions{Algorithm: unroll.NearNeighbor})
	if err != nil {
		t.Fatal(err)
	}
	c, err := unroll.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	qs := queryLoops(t)
	got, err := c.PredictBatch(context.Background(), qs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(qs) {
		t.Fatalf("batch returned %d results for %d loops", len(got), len(qs))
	}
	for i, q := range qs {
		if want := p.Predict(q); got[i] != want {
			t.Errorf("loop %d: batch %d != single %d", i, got[i], want)
		}
	}
	// A nil loop aborts the batch with a located error.
	if _, err := c.PredictBatch(context.Background(), []*unroll.Loop{qs[0], nil}); err == nil {
		t.Error("expected error for batch with nil loop")
	} else if !strings.Contains(err.Error(), "loop 1 of 2") {
		t.Errorf("batch error not located: %v", err)
	}
	// A canceled context aborts the batch.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.PredictBatch(ctx, qs); err == nil {
		t.Error("expected context error")
	}
}

func TestPredictFeatures(t *testing.T) {
	d := smallDataset(t)
	feats, err := unroll.SelectFeatures(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := unroll.Train(d, unroll.TrainOptions{Algorithm: unroll.LSSVM, Features: feats})
	if err != nil {
		t.Fatal(err)
	}
	l := queryLoops(t)[0]
	want := p.Predict(l)
	full := unroll.Features(l, unroll.Itanium2())
	// The full 38-vector is projected onto the subset.
	if got, err := p.PredictFeatures(full); err != nil || got != want {
		t.Errorf("full vector: (%d, %v), want %d", got, err, want)
	}
	// An already-projected vector is used as-is.
	proj := make([]float64, len(feats))
	for k, j := range feats {
		proj[k] = full[j]
	}
	if got, err := p.PredictFeatures(proj); err != nil || got != want {
		t.Errorf("projected vector: (%d, %v), want %d", got, err, want)
	}
	// Anything else is rejected.
	if _, err := p.PredictFeatures(make([]float64, 3)); err == nil {
		t.Error("expected length error")
	}
	// A full-featured predictor only takes the full vector.
	pFull, err := unroll.Train(d, unroll.TrainOptions{Algorithm: unroll.NearNeighbor})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pFull.PredictFeatures(full); err != nil {
		t.Errorf("full predictor, full vector: %v", err)
	}
	if _, err := pFull.PredictFeatures(proj); err == nil {
		t.Error("full predictor should reject a subset-length vector")
	}
}

// The legacy Predict must not panic or guess on bad input: it falls back to
// factor 1 and counts the event.
func TestPredictLegacyFallback(t *testing.T) {
	d := smallDataset(t)
	p, err := unroll.Train(d, unroll.TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fallback := obs.C("unroll.predict.fallback")
	before := fallback.Value()
	if u := p.Predict(nil); u != 1 {
		t.Errorf("Predict(nil) = %d, want fallback 1", u)
	}
	if fallback.Value() != before+1 {
		t.Errorf("fallback counter = %d, want %d", fallback.Value(), before+1)
	}
}

func TestPredictorVersionFingerprint(t *testing.T) {
	d := smallDataset(t)
	p, err := unroll.Train(d, unroll.TrainOptions{Algorithm: unroll.NearNeighbor})
	if err != nil {
		t.Fatal(err)
	}
	if p.Version() != unroll.PersistVersion {
		t.Errorf("trained predictor version = %d, want %d", p.Version(), unroll.PersistVersion)
	}
	if p.Fingerprint() == "" {
		t.Fatal("trained predictor has no fingerprint")
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	p2, err := unroll.LoadPredictor(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if p2.Fingerprint() != p.Fingerprint() {
		t.Errorf("fingerprint changed across round trip: %s -> %s", p.Fingerprint(), p2.Fingerprint())
	}
	if p2.Version() != unroll.PersistVersion {
		t.Errorf("loaded version = %d", p2.Version())
	}
	// Two different models fingerprint differently.
	pTree, err := unroll.Train(d, unroll.TrainOptions{Algorithm: unroll.DecisionTree})
	if err != nil {
		t.Fatal(err)
	}
	if pTree.Fingerprint() == p.Fingerprint() {
		t.Error("distinct models share a fingerprint")
	}
}

func TestLoadPredictorVersioning(t *testing.T) {
	d := smallDataset(t)
	p, err := unroll.Train(d, unroll.TrainOptions{Algorithm: unroll.NearNeighbor})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var env map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &env); err != nil {
		t.Fatal(err)
	}

	rewrite := func(mutate func(map[string]json.RawMessage)) []byte {
		clone := map[string]json.RawMessage{}
		for k, v := range env {
			clone[k] = v
		}
		mutate(clone)
		out, err := json.Marshal(clone)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	// A future format version is rejected with an actionable error.
	future := rewrite(func(m map[string]json.RawMessage) {
		m["version"] = json.RawMessage(`99`)
	})
	if _, err := unroll.LoadPredictor(bytes.NewReader(future)); err == nil {
		t.Error("expected rejection of future version")
	} else if !strings.Contains(err.Error(), "v99") || !strings.Contains(err.Error(), "metaopt train") {
		t.Errorf("future-version error not actionable: %v", err)
	}

	// A legacy blob (no version, no fingerprint) still loads.
	legacy := rewrite(func(m map[string]json.RawMessage) {
		delete(m, "version")
		delete(m, "fingerprint")
	})
	pLegacy, err := unroll.LoadPredictor(bytes.NewReader(legacy))
	if err != nil {
		t.Fatalf("legacy blob: %v", err)
	}
	if pLegacy.Version() != 0 {
		t.Errorf("legacy version = %d, want 0", pLegacy.Version())
	}
	if pLegacy.Fingerprint() == "" {
		t.Error("legacy load should compute a fingerprint")
	}
	l := queryLoops(t)[0]
	if pLegacy.Predict(l) != p.Predict(l) {
		t.Error("legacy blob predicts differently")
	}

	// A tampered model fails the fingerprint check.
	tampered := rewrite(func(m map[string]json.RawMessage) {
		m["machine"] = json.RawMessage(`"wide8"`)
	})
	if _, err := unroll.LoadPredictor(bytes.NewReader(tampered)); err == nil {
		t.Error("expected fingerprint mismatch for tampered artifact")
	} else if !strings.Contains(err.Error(), "fingerprint") {
		t.Errorf("tamper error: %v", err)
	}

	// Out-of-range feature indices are rejected up front.
	badFeats := rewrite(func(m map[string]json.RawMessage) {
		delete(m, "fingerprint")
		m["features"] = json.RawMessage(`[0, 500]`)
	})
	if _, err := unroll.LoadPredictor(bytes.NewReader(badFeats)); err == nil {
		t.Error("expected feature-range error")
	}
}
