package client

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"metaopt/internal/obs"
)

// TestRequestIDStableAcrossRetries checks one logical call carries one
// X-Request-Id through every retry attempt, and a fresh call gets a
// fresh ID.
func TestRequestIDStableAcrossRetries(t *testing.T) {
	var mu sync.Mutex
	var ids []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		ids = append(ids, r.Header.Get("X-Request-Id"))
		n := len(ids)
		mu.Unlock()
		if n < 3 {
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(ErrorResponse{Error: "shedding"})
			return
		}
		json.NewEncoder(w).Encode(PredictResponse{Factor: 2})
	}))
	defer srv.Close()

	c := newTestClient(t, srv.URL, Config{Retry: &RetryPolicy{
		MaxAttempts: 4,
		BaseDelay:   time.Millisecond,
		MaxDelay:    2 * time.Millisecond,
		Seed:        1,
	}})
	resp, err := c.Predict(context.Background(), PredictRequest{Source: "kernel k lang=c { double x[]; for i = 0 .. 4 { x[i] = 0.0; } }"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Factor != 2 {
		t.Fatalf("factor %d", resp.Factor)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(ids) != 3 {
		t.Fatalf("%d attempts, want 3", len(ids))
	}
	if ids[0] == "" {
		t.Fatal("no X-Request-Id sent")
	}
	for i, id := range ids {
		if id != ids[0] {
			t.Errorf("attempt %d changed the request ID: %q vs %q", i, id, ids[0])
		}
	}

	// A second logical call must mint a different ID.
	ids = ids[:2] // next call succeeds on its first attempt (len goes to 3)
	firstID := ids[0]
	mu.Unlock()
	if _, err := c.Predict(context.Background(), PredictRequest{Source: "x"}); err != nil {
		mu.Lock()
		t.Fatal(err)
	}
	mu.Lock()
	if got := ids[len(ids)-1]; got == firstID {
		t.Errorf("second call reused the first call's ID %q", got)
	}
}

// TestClientEndpointMetrics checks each endpoint feeds its own request
// counter and latency histogram.
func TestClientEndpointMetrics(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/predict":
			json.NewEncoder(w).Encode(PredictResponse{Factor: 1})
		case "/healthz":
			w.Write([]byte("ok\n"))
		default:
			w.WriteHeader(http.StatusNotFound)
			json.NewEncoder(w).Encode(ErrorResponse{Error: "no such endpoint"})
		}
	}))
	defer srv.Close()
	c := newTestClient(t, srv.URL, Config{})
	ctx := context.Background()

	predictBefore := obs.C("client.predict.requests").Value()
	healthBefore := obs.C("client.healthz.requests").Value()
	modelErrsBefore := obs.C("client.model.errors").Value()
	latBefore := obs.H("client.predict.latency_us", nil).Count()

	if _, err := c.Predict(ctx, PredictRequest{Source: "x"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Healthz(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Model(ctx); err == nil {
		t.Fatal("expected 404 from model endpoint")
	}

	if got := obs.C("client.predict.requests").Value() - predictBefore; got != 1 {
		t.Errorf("predict requests moved by %d, want 1", got)
	}
	if got := obs.C("client.healthz.requests").Value() - healthBefore; got != 1 {
		t.Errorf("healthz requests moved by %d, want 1", got)
	}
	if got := obs.C("client.model.errors").Value() - modelErrsBefore; got != 1 {
		t.Errorf("model errors moved by %d, want 1", got)
	}
	if got := obs.H("client.predict.latency_us", nil).Count() - latBefore; got != 1 {
		t.Errorf("predict latency observations moved by %d, want 1", got)
	}
}
