package serve

import (
	"context"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"metaopt/internal/faults"
	"metaopt/unroll"
	"metaopt/unroll/client"
)

// TestChaosPanicIsolation injects a panic into one prediction: that request
// must answer 500 with a request ID, every other request must succeed, and
// the server (including its worker pool) must stay alive.
func TestChaosPanicIsolation(t *testing.T) {
	defer faults.Reset()
	pred := trainPredictor(t, unroll.NearNeighbor)
	_, c := newTestServer(t, Config{
		Model:          pred,
		CacheSize:      -1, // every request must reach the workers
		RequestTimeout: 30 * time.Second,
	})
	ctx := context.Background()

	// Warm check, then arm: the very next prediction panics inside the
	// worker.
	if _, err := c.Predict(ctx, client.PredictRequest{Source: testKernels[0]}); err != nil {
		t.Fatal(err)
	}
	panicsBefore := mPanics.Value()
	faults.MustInstall(faults.Spec{Site: "serve.batch", Kind: faults.KindPanic, Nth: 1})
	// The batch dispatch panics, and the per-item fallback hits the
	// "serve.predict" site too: the request must still fail cleanly.
	faults.MustInstall(faults.Spec{Site: "serve.predict", Kind: faults.KindPanic, Nth: 1, Count: 1})

	_, err := c.Predict(ctx, client.PredictRequest{Source: testKernels[1]})
	ae, ok := err.(*client.APIError)
	if !ok || ae.Status != http.StatusInternalServerError {
		t.Fatalf("panicking prediction answered %v, want HTTP 500", err)
	}
	if !strings.Contains(ae.Message, "request ") || !strings.Contains(ae.Message, "panicked") {
		t.Errorf("500 message carries no request ID: %q", ae.Message)
	}
	if strings.Contains(ae.Message, "goroutine") {
		t.Errorf("500 message leaks a stack trace: %q", ae.Message)
	}
	if mPanics.Value() <= panicsBefore {
		t.Error("serve.worker_panics did not move")
	}

	// The pool survives: subsequent requests on every kernel succeed.
	faults.Reset()
	for _, src := range testKernels {
		if _, err := c.Predict(ctx, client.PredictRequest{Source: src}); err != nil {
			t.Fatalf("request after contained panic failed: %v", err)
		}
	}
}

// TestChaosBatchPanicIsolatesItem: a panic during the merged dispatch falls
// back to per-item prediction, so healthy loops in the same batch still get
// answers.
func TestChaosBatchPanicIsolatesItem(t *testing.T) {
	defer faults.Reset()
	pred := trainPredictor(t, unroll.NearNeighbor)
	_, c := newTestServer(t, Config{
		Model:          pred,
		CacheSize:      -1,
		RequestTimeout: 30 * time.Second,
	})
	ctx := context.Background()

	// The merged dispatch panics once; the per-item fallback then panics
	// on exactly one member.
	faults.MustInstall(faults.Spec{Site: "serve.batch", Kind: faults.KindPanic, Nth: 1})
	faults.MustInstall(faults.Spec{Site: "serve.predict", Kind: faults.KindPanic, Nth: 2, Count: 1})

	reqs := make([]client.PredictRequest, 4)
	for i := range reqs {
		reqs[i] = client.PredictRequest{Source: testKernels[i]}
	}
	resp, err := c.PredictBatch(ctx, reqs)
	if err != nil {
		t.Fatalf("batch with one panicking item failed wholesale: %v", err)
	}
	var failed, succeeded int
	for i, res := range resp.Results {
		if res.Error != "" {
			failed++
			if !strings.Contains(res.Error, "panicked") {
				t.Errorf("item %d error: %q", i, res.Error)
			}
		} else {
			succeeded++
			if res.Factor < 1 || res.Factor > unroll.MaxFactor {
				t.Errorf("item %d factor %d out of range", i, res.Factor)
			}
		}
	}
	if failed != 1 || succeeded != 3 {
		t.Fatalf("batch outcome: %d failed, %d succeeded; want exactly 1 failed", failed, succeeded)
	}
}

// TestChaosPanicStreakFlipsReadiness: K consecutive panics mark the server
// unready (so an orchestrator pulls it from rotation instead of letting it
// flap), and a successful prediction — or a model reload — restores it.
func TestChaosPanicStreakFlipsReadiness(t *testing.T) {
	defer faults.Reset()
	pred := trainPredictor(t, unroll.NearNeighbor)
	_, c := newTestServer(t, Config{
		Model:          pred,
		CacheSize:      -1,
		PanicThreshold: 2,
		RequestTimeout: 30 * time.Second,
	})
	ctx := context.Background()

	faults.MustInstall(faults.Spec{Site: "serve.predict", Kind: faults.KindPanic, Count: 3})
	// Two consecutive single-feature predictions panic (each request hits
	// the serve.predict site once on the feats path).
	l := parseKernel(t, testKernels[0])
	feats := unroll.Features(l, unroll.Itanium2())
	for i := 0; i < 2; i++ {
		_, err := c.Predict(ctx, client.PredictRequest{Features: feats})
		if ae, ok := err.(*client.APIError); !ok || ae.Status != http.StatusInternalServerError {
			t.Fatalf("panic %d answered %v, want 500", i, err)
		}
	}
	if err := c.Readyz(ctx); !client.IsOverloaded(err) {
		t.Fatalf("readyz after panic streak: %v, want 503", err)
	}
	// Liveness is unaffected: the process is healthy, just unready.
	if err := c.Healthz(ctx); err != nil {
		t.Fatalf("healthz during unready: %v", err)
	}

	// The spec has one fire left; it panics, then the next succeeds and
	// clears the streak.
	_, _ = c.Predict(ctx, client.PredictRequest{Features: feats})
	if _, err := c.Predict(ctx, client.PredictRequest{Features: feats}); err != nil {
		t.Fatalf("recovery prediction failed: %v", err)
	}
	if err := c.Readyz(ctx); err != nil {
		t.Fatalf("readyz after successful prediction: %v, want ready", err)
	}
}

// TestChaosNonFiniteFeaturesRejected: NaN/Inf vectors answer 400 at the
// boundary, count on the obs counter, and never reach the model.
func TestChaosNonFiniteFeaturesRejected(t *testing.T) {
	pred := trainPredictor(t, unroll.NearNeighbor)
	s, _ := newTestServer(t, Config{Model: pred, RequestTimeout: 30 * time.Second})
	before := mNonFinite.Value()
	for _, bad := range [][]float64{
		append(make([]float64, unroll.NumFeatures-1), math.NaN()),
		append(make([]float64, unroll.NumFeatures-1), math.Inf(1)),
		append(make([]float64, unroll.NumFeatures-1), math.Inf(-1)),
	} {
		// JSON cannot carry NaN/Inf, so exercise the boundary the way an
		// embedded Handler user would: through newItem directly.
		it, status, err := s.newItem(s.reg.Default(), client.PredictRequest{Features: bad})
		if err == nil || status != http.StatusBadRequest {
			t.Fatalf("non-finite vector passed validation: it=%v status=%d err=%v", it, status, err)
		}
	}
	if mNonFinite.Value() != before+3 {
		t.Errorf("serve.nonfinite_features moved %d, want 3", mNonFinite.Value()-before)
	}
	// The library boundary rejects them too.
	bad := make([]float64, unroll.NumFeatures)
	bad[3] = math.NaN()
	if _, err := pred.PredictFeatures(bad); err == nil {
		t.Error("PredictFeatures accepted NaN")
	}
}

// TestChaosInjectedLatencyHitsDeadline: a latency fault longer than the
// request timeout must answer 504, not hang the worker.
func TestChaosInjectedLatencyHitsDeadline(t *testing.T) {
	defer faults.Reset()
	pred := trainPredictor(t, unroll.NearNeighbor)
	_, c := newTestServer(t, Config{
		Model:          pred,
		CacheSize:      -1,
		RequestTimeout: 50 * time.Millisecond,
	})
	faults.MustInstall(faults.Spec{Site: "serve.batch", Kind: faults.KindLatency, Nth: 1, Latency: 300 * time.Millisecond})
	_, err := c.Predict(context.Background(), client.PredictRequest{Source: testKernels[0]})
	ae, ok := err.(*client.APIError)
	if !ok || ae.Status != http.StatusGatewayTimeout {
		t.Fatalf("slow prediction answered %v, want 504", err)
	}
	// And the worker comes back once the injected sleep ends.
	faults.Reset()
	waitFor(t, "worker to recover from latency fault", func() bool {
		_, err := c.Predict(context.Background(), client.PredictRequest{Source: testKernels[1]})
		return err == nil
	})
}
