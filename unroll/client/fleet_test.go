package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// predictServer answers every /v1/predict with the given factor and
// counts the calls it sees.
func predictServer(t *testing.T, factor int) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		json.NewEncoder(w).Encode(PredictResponse{Factor: factor, Fingerprint: "fp"})
	}))
	t.Cleanup(srv.Close)
	return srv, &calls
}

func TestNewClientRequiresEndpoint(t *testing.T) {
	if _, err := NewClient(Config{}); err == nil {
		t.Fatal("NewClient with no endpoints must error")
	}
}

// TestAPIErrorMapping checks every Client method surfaces the same typed
// *APIError: status, stable code, message, request ID, and the answering
// endpoint, with errors.Is template matching on top.
func TestAPIErrorMapping(t *testing.T) {
	cases := []struct {
		status int
		code   string
	}{
		{http.StatusBadRequest, CodeBadRequest},
		{http.StatusNotFound, CodeNotFound},
		{http.StatusConflict, CodeConflict},
		{http.StatusUnprocessableEntity, CodeUnprocessable},
		{http.StatusTooManyRequests, CodeOverCapacity},
		{http.StatusInternalServerError, CodeInternal},
		{http.StatusBadGateway, CodeBadGateway},
		{http.StatusServiceUnavailable, CodeUnavailable},
		{http.StatusGatewayTimeout, CodeTimeout},
		{http.StatusTeapot, "http_418"},
	}
	var status atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Request-Id", r.Header.Get("X-Request-Id"))
		w.WriteHeader(int(status.Load()))
		json.NewEncoder(w).Encode(ErrorResponse{Error: "boom"})
	}))
	defer srv.Close()
	c := newTestClient(t, srv.URL, Config{})
	ctx := context.Background()
	for _, tc := range cases {
		status.Store(int64(tc.status))
		_, err := c.Predict(ctx, PredictRequest{Source: "k"})
		var ae *APIError
		if !errors.As(err, &ae) {
			t.Fatalf("status %d: no APIError in %v", tc.status, err)
		}
		if ae.Status != tc.status || ae.Code != tc.code {
			t.Errorf("status %d: got (%d, %q), want (%d, %q)", tc.status, ae.Status, ae.Code, tc.status, tc.code)
		}
		if ae.Message != "boom" || ae.Endpoint != srv.URL || ae.RequestID == "" {
			t.Errorf("status %d: incomplete error %+v", tc.status, ae)
		}
		if !strings.Contains(ae.Error(), "boom") || !strings.Contains(ae.Error(), ae.Code) {
			t.Errorf("Error() lost context: %q", ae.Error())
		}
		// Template matching: any subset of non-zero fields must match.
		if !errors.Is(err, &APIError{Status: tc.status}) ||
			!errors.Is(err, &APIError{Code: tc.code}) ||
			!errors.Is(err, &APIError{Status: tc.status, Endpoint: srv.URL}) {
			t.Errorf("status %d: errors.Is template match failed", tc.status)
		}
		if errors.Is(err, &APIError{Status: tc.status + 1}) {
			t.Errorf("status %d: errors.Is matched a different status", tc.status)
		}
		wantOverloaded := tc.status == http.StatusServiceUnavailable || tc.status == http.StatusTooManyRequests
		if IsOverloaded(err) != wantOverloaded {
			t.Errorf("status %d: IsOverloaded = %v", tc.status, IsOverloaded(err))
		}
	}

	// Non-idempotent methods return the same typed error.
	status.Store(http.StatusConflict)
	if _, err := c.ModelPromote(ctx, "x"); !errors.Is(err, &APIError{Code: CodeConflict}) {
		t.Errorf("ModelPromote error not mapped: %v", err)
	}
}

// TestFailoverIgnoresSiblingRetryAfter pins the per-endpoint Retry-After
// semantics: a 503 hint from one replica parks that replica alone — the
// very next attempt goes to a healthy sibling immediately instead of
// sleeping out the hint.
func TestFailoverIgnoresSiblingRetryAfter(t *testing.T) {
	var sickCalls atomic.Int64
	sick := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		sickCalls.Add(1)
		w.Header().Set("Retry-After", "30")
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(ErrorResponse{Error: "shedding"})
	}))
	defer sick.Close()
	healthy, healthyCalls := predictServer(t, 4)

	c, err := NewClient(Config{
		Endpoints: []string{sick.URL, healthy.URL},
		Retry:     &RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond, Seed: 9},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	start := time.Now()
	for i := 0; i < 20; i++ {
		if _, err := c.Predict(ctx, PredictRequest{Source: "k"}); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("20 calls took %v — a sibling's Retry-After delayed failover", elapsed)
	}
	// The hint parks the sick endpoint on first contact; the picker must
	// not route to it again within the 30s hold.
	if got := sickCalls.Load(); got > 2 {
		t.Errorf("sick endpoint saw %d calls after its Retry-After hold", got)
	}
	if healthyCalls.Load() < 20 {
		t.Errorf("healthy endpoint saw only %d calls", healthyCalls.Load())
	}
}

// TestRetryBudgetExhausted pins the anti-retry-storm bound: with a Burst-2
// budget, a persistently failing endpoint gets the first attempt plus two
// budget-funded retries, then the client gives up naming the budget.
func TestRetryBudgetExhausted(t *testing.T) {
	srv, calls := flakyServer(t, 1000, "0")
	c, err := NewClient(Config{
		Endpoints: []string{srv.URL},
		Retry:     &RetryPolicy{MaxAttempts: 10, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond, Seed: 3},
		Budget:    &RetryBudget{Ratio: 0.1, Burst: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	before := mBudgetExhausted.Value()
	_, err = c.Predict(context.Background(), PredictRequest{Source: "k"})
	if err == nil {
		t.Fatal("expected failure")
	}
	if !strings.Contains(err.Error(), "retry budget exhausted") {
		t.Errorf("error does not name the budget: %v", err)
	}
	if !IsOverloaded(err) {
		t.Errorf("wrapped budget error lost the 503: %v", err)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("server saw %d calls, want 3 (first attempt + Burst=2 retries)", got)
	}
	if mBudgetExhausted.Value() == before {
		t.Error("client.retry.budget_exhausted did not move")
	}
}
