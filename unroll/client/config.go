package client

import (
	"errors"
	"math/rand"
	"net/http"
	"strings"
	"time"
)

// Config describes a Client: the replica set it spreads load over and the
// resilience machinery armed on each endpoint.
type Config struct {
	// Endpoints are the replica base URLs, e.g. "http://10.0.0.1:8080".
	// At least one is required. Requests are balanced across them with
	// power-of-two-choices over in-flight counts; idempotent requests
	// fail over to a different replica on retryable errors.
	Endpoints []string

	// HTTPClient substitutes the underlying *http.Client (pooling,
	// timeouts, instrumentation). Default http.DefaultClient.
	HTTPClient *http.Client

	// Retry arms exponential-backoff retries (with failover across
	// endpoints) for idempotent requests. nil disables retries; multi-
	// endpoint clients still fail over once per remaining endpoint.
	Retry *RetryPolicy

	// Budget bounds retries per endpoint to a fraction of successful
	// request volume, so a browning-out fleet is not hammered with
	// multiplied load. nil leaves retries bounded only by Retry.
	Budget *RetryBudget

	// Breaker arms an independent circuit breaker per endpoint. nil
	// disables breaking.
	Breaker *BreakerPolicy

	// Model and Tenant are stamped onto every v2 request that does not
	// set its own: Model pins a registry version (fingerprint or alias),
	// Tenant labels traffic for per-tenant accounting.
	Model  string
	Tenant string
}

// BreakerPolicy configures the per-endpoint circuit breakers: after
// Threshold consecutive server faults an endpoint fails fast for Cooldown,
// then admits a single half-open probe whose outcome closes or reopens the
// circuit. Each endpoint trips independently — one dead replica never
// blinds the client to its healthy siblings.
type BreakerPolicy struct {
	Threshold int           // consecutive faults to open (default 5)
	Cooldown  time.Duration // open duration before the probe (default 1s)
}

// NewClient builds a client for a replica set. At least one endpoint is
// required.
func NewClient(cfg Config) (*Client, error) {
	if len(cfg.Endpoints) == 0 {
		return nil, errors.New("client: Config.Endpoints is empty; name at least one replica")
	}
	hc := cfg.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	c := &Client{hc: hc, model: cfg.Model, tenant: cfg.Tenant}
	seed := time.Now().UnixNano()
	if cfg.Retry != nil {
		p := cfg.Retry.withDefaults()
		c.retry = &retrier{policy: p, rng: rand.New(rand.NewSource(p.Seed))}
		seed = p.Seed + 1 // deterministic picker under a seeded policy
	}
	c.prng = rand.New(rand.NewSource(seed))
	for i, base := range cfg.Endpoints {
		c.eps = append(c.eps, newEndpoint(strings.TrimRight(base, "/"), i, &cfg))
	}
	return c, nil
}
