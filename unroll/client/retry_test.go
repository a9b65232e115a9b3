package client

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// flakyServer answers 503 (with a Retry-After hint) for the first fail
// requests to /v1/predict, then succeeds.
func flakyServer(t *testing.T, fail int, retryAfter string) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/predict":
			if calls.Add(1) <= int64(fail) {
				if retryAfter != "" {
					w.Header().Set("Retry-After", retryAfter)
				}
				w.WriteHeader(http.StatusServiceUnavailable)
				json.NewEncoder(w).Encode(ErrorResponse{Error: "queue full"})
				return
			}
			json.NewEncoder(w).Encode(PredictResponse{Factor: 4})
		case "/v1/admin/reload":
			calls.Add(1)
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(ErrorResponse{Error: "no"})
		default:
			w.WriteHeader(http.StatusNotFound)
		}
	}))
	t.Cleanup(srv.Close)
	return srv, &calls
}

// fastRetry keeps test wall-clock tiny and jitter deterministic.
func fastRetry(attempts int) *RetryPolicy {
	return &RetryPolicy{MaxAttempts: attempts, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond, Seed: 42}
}

func TestRetrySucceedsAfterBackoff(t *testing.T) {
	srv, calls := flakyServer(t, 2, "0")
	c := newTestClient(t, srv.URL, Config{Retry: fastRetry(4)})
	retriesBefore := mRetries.Value()
	resp, err := c.Predict(context.Background(), PredictRequest{Source: "k"})
	if err != nil {
		t.Fatalf("predict with retries: %v", err)
	}
	if resp.Factor != 4 {
		t.Errorf("factor = %d", resp.Factor)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("server saw %d calls, want 3 (2 failures + success)", got)
	}
	if mRetries.Value()-retriesBefore != 2 {
		t.Errorf("client.retries moved %d, want 2", mRetries.Value()-retriesBefore)
	}
}

func TestRetryExhaustsBudget(t *testing.T) {
	srv, calls := flakyServer(t, 100, "0")
	c := newTestClient(t, srv.URL, Config{Retry: fastRetry(3)})
	_, err := c.Predict(context.Background(), PredictRequest{Source: "k"})
	if !IsOverloaded(err) {
		t.Fatalf("want final 503 after budget, got %v", err)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("server saw %d calls, want exactly MaxAttempts=3", got)
	}
}

func TestRetryOnlyIdempotent(t *testing.T) {
	srv, calls := flakyServer(t, 100, "0")
	c := newTestClient(t, srv.URL, Config{Retry: fastRetry(5)})
	if _, err := c.Reload(context.Background(), "x"); err == nil {
		t.Fatal("reload should fail")
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("non-idempotent reload was retried: %d calls", got)
	}
}

func TestRetryDoesNotRetry4xx(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		json.NewEncoder(w).Encode(ErrorResponse{Error: "bad loop"})
	}))
	defer srv.Close()
	c := newTestClient(t, srv.URL, Config{Retry: fastRetry(5)})
	_, err := c.Predict(context.Background(), PredictRequest{Source: "k"})
	ae, ok := err.(*APIError)
	if !ok || ae.Status != http.StatusBadRequest {
		t.Fatalf("want 400, got %v", err)
	}
	if calls.Load() != 1 {
		t.Errorf("4xx was retried: %d calls", calls.Load())
	}
}

func TestRetryRespectsContextDeadline(t *testing.T) {
	srv, _ := flakyServer(t, 100, "")
	// Long backoff vs. a short deadline: the loop must give up promptly
	// rather than sleep past the deadline.
	c := newTestClient(t, srv.URL, Config{Retry: &RetryPolicy{MaxAttempts: 10, BaseDelay: 10 * time.Second, MaxDelay: 20 * time.Second, Seed: 1}})
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Predict(ctx, PredictRequest{Source: "k"})
	if err == nil {
		t.Fatal("expected failure")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("retry loop slept %v past a 100ms deadline", elapsed)
	}
	if !IsOverloaded(err) && !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("final error should surface the 503 or the deadline: %v", err)
	}
}

func TestRetryHonorsRetryAfterClamped(t *testing.T) {
	p := fastRetry(4).withDefaults()
	r := &retrier{policy: p, rng: rand.New(rand.NewSource(p.Seed))}
	// Hint below the clamp: backoff floor is the hint.
	if d := r.backoff(0, 20*time.Millisecond); d < 20*time.Millisecond {
		t.Errorf("backoff %v ignored the Retry-After floor", d)
	}
	// Absurd hint: clamped to MaxRetryAfter, not honored verbatim.
	if d := r.backoff(0, time.Hour); d > MaxRetryAfter {
		t.Errorf("backoff %v exceeded the %v clamp", d, MaxRetryAfter)
	} else if d < MaxRetryAfter {
		t.Errorf("clamped hint should still floor the backoff: %v", d)
	}
}

func TestParseRetryAfterClamp(t *testing.T) {
	cases := []struct {
		in   string
		want time.Duration
	}{
		{"", 0}, {"3", 3 * time.Second}, {"-5", 0}, {"nonsense", 0},
		{"86400", MaxRetryAfter}, {"30", 30 * time.Second},
	}
	for _, tc := range cases {
		if got := parseRetryAfter(tc.in); got != tc.want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestBreakerOpensAndRecovers(t *testing.T) {
	srv, calls := flakyServer(t, 3, "0")
	now := time.Unix(0, 0)
	c := newTestClient(t, srv.URL, Config{Breaker: &BreakerPolicy{Threshold: 3, Cooldown: time.Second}})
	c.eps[0].breaker.now = func() time.Time { return now }
	ctx := context.Background()

	// Three consecutive failures trip the breaker.
	for i := 0; i < 3; i++ {
		if _, err := c.Predict(ctx, PredictRequest{Source: "k"}); !IsOverloaded(err) {
			t.Fatalf("failure %d: %v", i, err)
		}
	}
	rejectsBefore := mBreakerRejects.Value()
	if _, err := c.Predict(ctx, PredictRequest{Source: "k"}); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("open breaker let a request through: %v", err)
	}
	if calls.Load() != 3 {
		t.Fatalf("server saw %d calls while breaker open, want 3", calls.Load())
	}
	if mBreakerRejects.Value() <= rejectsBefore {
		t.Error("client.breaker.rejects did not move")
	}

	// After the cooldown, one half-open probe goes through; the server is
	// healthy now, so the probe closes the circuit.
	now = now.Add(2 * time.Second)
	if _, err := c.Predict(ctx, PredictRequest{Source: "k"}); err != nil {
		t.Fatalf("half-open probe: %v", err)
	}
	if _, err := c.Predict(ctx, PredictRequest{Source: "k"}); err != nil {
		t.Fatalf("closed-circuit request: %v", err)
	}
}

func TestBreakerProbeFailureReopens(t *testing.T) {
	srv, _ := flakyServer(t, 100, "0")
	now := time.Unix(0, 0)
	c := newTestClient(t, srv.URL, Config{Breaker: &BreakerPolicy{Threshold: 2, Cooldown: time.Second}})
	c.eps[0].breaker.now = func() time.Time { return now }
	ctx := context.Background()

	for i := 0; i < 2; i++ {
		c.Predict(ctx, PredictRequest{Source: "k"})
	}
	// Cooldown passes; the probe fails; the circuit reopens for a fresh
	// cooldown.
	now = now.Add(1100 * time.Millisecond)
	if _, err := c.Predict(ctx, PredictRequest{Source: "k"}); !IsOverloaded(err) {
		t.Fatalf("probe should reach the server: %v", err)
	}
	if _, err := c.Predict(ctx, PredictRequest{Source: "k"}); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("failed probe should reopen the breaker: %v", err)
	}
	// 4xx answers prove the server is up: they must not count as faults.
	b := &breaker{threshold: 1, cooldown: time.Second, now: func() time.Time { return now }}
	b.record(serverFault(&APIError{Status: http.StatusBadRequest}))
	if b.open {
		t.Error("a 400 tripped the breaker")
	}
}

func TestBodyDrainKeepsConnectionsReused(t *testing.T) {
	// Count TCP dials the client makes: with proper drain-and-close, a
	// burst of error responses reuses one keep-alive connection.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusUnprocessableEntity)
		json.NewEncoder(w).Encode(ErrorResponse{Error: "nope"})
	}))
	defer srv.Close()

	var dials atomic.Int64
	dialer := &net.Dialer{}
	tr := &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			dials.Add(1)
			return dialer.DialContext(ctx, network, addr)
		},
	}
	defer tr.CloseIdleConnections()
	c := newTestClient(t, srv.URL, Config{HTTPClient: &http.Client{Transport: tr}})
	ctx := context.Background()
	for i := 0; i < 8; i++ {
		if _, err := c.Predict(ctx, PredictRequest{Source: "k"}); err == nil {
			t.Fatal("expected 422")
		}
	}
	if got := dials.Load(); got != 1 {
		t.Errorf("error responses burned %d connections, want 1 (drain-and-close + keep-alive)", got)
	}
}

// TestRetrierBackoffSchedule pins the client's retry schedule: full-jitter
// delays stay within [0, MaxDelay] however many attempts grow the ceiling,
// a server hint floors the delay, and the sleep honors context
// cancellation.
func TestRetrierBackoffSchedule(t *testing.T) {
	p := RetryPolicy{
		MaxAttempts: 5,
		BaseDelay:   10 * time.Millisecond,
		MaxDelay:    80 * time.Millisecond,
		Seed:        42,
	}.withDefaults()
	r := &retrier{policy: p, rng: rand.New(rand.NewSource(p.Seed))}
	for attempt := 0; attempt < 12; attempt++ {
		d := r.backoff(attempt, 0)
		if d < 0 || d > 80*time.Millisecond {
			t.Fatalf("attempt %d: delay %v outside [0, MaxDelay]", attempt, d)
		}
	}
	// A server hint floors the jittered delay.
	if d := r.backoff(0, 50*time.Millisecond); d < 50*time.Millisecond {
		t.Fatalf("hinted delay %v below the 50ms hint", d)
	}
	// Cancellation interrupts the sleep.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := r.sleep(ctx, 3, time.Minute); !errors.Is(err, context.Canceled) {
		t.Fatalf("sleep on cancelled context: %v", err)
	}
}
