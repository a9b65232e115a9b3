package client

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"metaopt/internal/obs"
)

// Client-side resilience telemetry.
var (
	mRetries         = obs.C("client.retries")
	mRetryGiveUps    = obs.C("client.retry.giveups")
	mFailovers       = obs.C("client.failovers")
	mBudgetExhausted = obs.C("client.retry.budget_exhausted")
	mBreakerOpens    = obs.C("client.breaker.opens")
	mBreakerRejects  = obs.C("client.breaker.rejects")
	mBreakerProbes   = obs.C("client.breaker.probes")
)

// MaxRetryAfter caps how long a server-sent Retry-After hint is honored.
// A misbehaving (or hostile) server must not be able to park clients for
// an hour by emitting "Retry-After: 3600".
const MaxRetryAfter = 30 * time.Second

// RetryPolicy configures exponential backoff with full jitter for
// idempotent requests (predictions and reads; never admin reloads).
//
// Attempt n sleeps a uniformly random duration in [0, min(MaxDelay,
// BaseDelay·2ⁿ)) — "full jitter", which decorrelates a thundering herd of
// retrying clients. When the failed response carried a Retry-After hint the
// sleep is at least that hint (clamped to MaxRetryAfter): the server's
// explicit backpressure signal is honored, never trusted verbatim.
//
// Retries stop at MaxAttempts total tries, on the first non-retryable
// error (4xx, context cancellation), or when the context's deadline would
// expire before the backoff completes — whichever comes first.
type RetryPolicy struct {
	MaxAttempts int           // total tries including the first (default 4)
	BaseDelay   time.Duration // first backoff ceiling (default 100ms)
	MaxDelay    time.Duration // backoff ceiling growth limit (default 5s)
	Seed        int64         // jitter seed; 0 seeds from the clock
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 100 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 5 * time.Second
	}
	if p.Seed == 0 {
		p.Seed = time.Now().UnixNano()
	}
	return p
}

// ErrCircuitOpen is returned (wrapped) while the breaker is open; the
// request was never sent.
var ErrCircuitOpen = errors.New("circuit breaker open")

// retrier holds the armed policy plus a locked jitter source (clients are
// used concurrently).
type retrier struct {
	policy RetryPolicy
	mu     sync.Mutex
	rng    *rand.Rand
}

// backoff computes the attempt-th sleep (0-based), honoring a clamped
// Retry-After hint as the floor.
func (r *retrier) backoff(attempt int, hint time.Duration) time.Duration {
	ceil := r.policy.BaseDelay << attempt
	if ceil > r.policy.MaxDelay || ceil <= 0 {
		ceil = r.policy.MaxDelay
	}
	r.mu.Lock()
	d := time.Duration(r.rng.Int63n(int64(ceil) + 1))
	r.mu.Unlock()
	if hint > MaxRetryAfter {
		hint = MaxRetryAfter
	}
	if d < hint {
		d = hint
	}
	return d
}

// sleep blocks for the attempt's backoff, or returns early when ctx ends
// or its deadline would expire mid-sleep (no point burning the rest of the
// budget on a sleep that cannot be followed by a request).
func (r *retrier) sleep(ctx context.Context, attempt int, hint time.Duration) error {
	d := r.backoff(attempt, hint)
	if dl, ok := ctx.Deadline(); ok && time.Until(dl) < d {
		return fmt.Errorf("retry backoff %v exceeds the context's remaining budget: %w", d, context.DeadlineExceeded)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// retryable reports whether an error is worth another attempt: transport
// failures and the load-shedding statuses (429/502/503/504). Client
// mistakes (4xx), prediction failures (422), server bugs (500), and
// context cancellation are not.
func retryable(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var ae *APIError
	if errors.As(err, &ae) {
		switch ae.Status {
		case http.StatusTooManyRequests, http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			return true
		}
		return false
	}
	return true // transport-level failure: connection refused/reset, etc.
}

// serverFault reports whether an error should trip the breaker: transport
// failures and 5xx. A 4xx proves the server is alive and answering.
func serverFault(err error) bool {
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.Status >= 500
	}
	return !errors.Is(err, context.Canceled)
}

// retryAfterOf extracts a failed attempt's Retry-After hint, if any.
func retryAfterOf(err error) time.Duration {
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.RetryAfter
	}
	return 0
}

// breaker is a minimal three-state circuit breaker. All transitions happen
// under mu; the hot path is one short critical section per request.
type breaker struct {
	mu        sync.Mutex
	threshold int
	cooldown  time.Duration
	now       func() time.Time // injectable clock for tests

	failures int
	open     bool
	openedAt time.Time
	probing  bool
}

// allow gates a request: nil while closed, nil for exactly one probe per
// cooldown while open, ErrCircuitOpen otherwise.
func (b *breaker) allow() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.open {
		return nil
	}
	if wait := b.openedAt.Add(b.cooldown).Sub(b.now()); wait > 0 {
		mBreakerRejects.Inc()
		return fmt.Errorf("%w: %d consecutive failures, retry in %v", ErrCircuitOpen, b.failures, wait.Round(time.Millisecond))
	}
	if b.probing {
		mBreakerRejects.Inc()
		return fmt.Errorf("%w: half-open probe already in flight", ErrCircuitOpen)
	}
	b.probing = true
	mBreakerProbes.Inc()
	return nil
}

// canAttempt is the endpoint picker's non-mutating preview of allow: true
// when a request would be admitted right now (closed, or open past its
// cooldown with no probe in flight). It never claims the probe slot and
// bumps no counters, so scanning candidates has no side effects.
func (b *breaker) canAttempt() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.open {
		return true
	}
	if b.openedAt.Add(b.cooldown).After(b.now()) {
		return false
	}
	return !b.probing
}

// record feeds a request's outcome back into the breaker.
func (b *breaker) record(fault bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !fault {
		b.failures = 0
		b.open = false
		b.probing = false
		return
	}
	b.failures++
	if b.probing {
		// The half-open probe failed: reopen for a fresh cooldown.
		b.probing = false
		b.openedAt = b.now()
		mBreakerOpens.Inc()
		return
	}
	if !b.open && b.failures >= b.threshold {
		b.open = true
		b.openedAt = b.now()
		mBreakerOpens.Inc()
	}
}
