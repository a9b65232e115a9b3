package client

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// The full client/server contract is exercised end to end in
// internal/serve's tests; here we pin down the client's own error
// handling against a canned server.
func TestClientErrorHandling(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/predict":
			w.Header().Set("Retry-After", "3")
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(ErrorResponse{Error: "admission queue full"})
		case "/v1/predict/batch":
			json.NewEncoder(w).Encode(BatchResponse{Results: []BatchResult{{Factor: 2}}})
		case "/healthz":
			w.WriteHeader(http.StatusInternalServerError)
		}
	}))
	defer srv.Close()
	c := newTestClient(t, srv.URL+"/", Config{}) // trailing slash is normalized
	ctx := context.Background()

	_, err := c.Predict(ctx, PredictRequest{Source: "kernel k lang=c {}"})
	ae, ok := err.(*APIError)
	if !ok {
		t.Fatalf("want *APIError, got %v", err)
	}
	if ae.Status != http.StatusServiceUnavailable || ae.Message != "admission queue full" {
		t.Errorf("APIError = %+v", ae)
	}
	if ae.RetryAfter != 3*time.Second {
		t.Errorf("RetryAfter = %v", ae.RetryAfter)
	}
	if !IsOverloaded(err) {
		t.Error("503 should report overloaded")
	}

	// A mis-sized batch response is an error, not a silent truncation.
	if _, err := c.PredictBatch(ctx, make([]PredictRequest, 2)); err == nil {
		t.Error("expected length-mismatch error")
	}

	if err := c.Healthz(ctx); err == nil {
		t.Error("expected healthz error for 500")
	} else if IsOverloaded(err) {
		t.Error("500 is not overload")
	}
}

// newTestClient builds a client from cfg for the single test server at
// base.
func newTestClient(t *testing.T, base string, cfg Config) *Client {
	t.Helper()
	cfg.Endpoints = []string{base}
	c, err := NewClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}
