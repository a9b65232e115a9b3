package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"metaopt/internal/obs"
	"metaopt/unroll"
	"metaopt/unroll/client"
)

// fleetConfig is one replica's config; every replica serves the same
// model so answers are interchangeable across the fleet.
func fleetConfig(pred *unroll.Predictor) Config {
	return Config{
		Model:          pred,
		QueueDepth:     256,
		Workers:        2,
		MaxBatch:       8,
		RequestTimeout: 30 * time.Second,
	}
}

// TestServeFleetFailover is the fleet e2e: three replicas behind one
// client, one replica killed mid-stream. Idempotent calls must not fail —
// transport errors and drain 503s fail over to survivors — every response
// must carry the serving fingerprint, and post-mortem the load must be
// spread within 2x across the survivors. Run under -race.
func TestServeFleetFailover(t *testing.T) {
	pred := trainPredictor(t, unroll.NearNeighbor)
	var servers []*Server
	var urls []string
	for i := 0; i < 3; i++ {
		s, err := New(fleetConfig(pred))
		if err != nil {
			t.Fatal(err)
		}
		addr, err := s.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, s)
		urls = append(urls, "http://"+addr)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		for _, s := range servers {
			s.Shutdown(ctx)
		}
	})

	hc := &http.Client{Transport: http.DefaultTransport.(*http.Transport).Clone()}
	c, err := client.NewClient(client.Config{
		Endpoints:  urls,
		HTTPClient: hc,
		Retry:      &client.RetryPolicy{MaxAttempts: 6, BaseDelay: time.Millisecond, MaxDelay: 8 * time.Millisecond, Seed: 11},
		Breaker:    &client.BreakerPolicy{Threshold: 3, Cooldown: 2 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(hc.CloseIdleConnections) // runs before the shutdowns (see newTestServer)

	var before [3]int64
	for i := range before {
		before[i] = obs.C(fmt.Sprintf("client.endpoint.%d.requests", i)).Value()
	}

	const total, workers = 400, 8
	killTrigger := make(chan struct{})
	killDone := make(chan struct{})
	var completed atomic.Int64
	go func() {
		defer close(killDone)
		<-killTrigger
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		servers[0].Shutdown(ctx)
	}()

	var wg sync.WaitGroup
	ctx := context.Background()
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < total; i += workers {
				resp, err := c.Predict(ctx, client.PredictRequest{Source: testKernels[i%len(testKernels)]})
				if n := completed.Add(1); n == total/4 {
					close(killTrigger)
				}
				if err != nil {
					t.Errorf("idempotent call %d failed across a 3-replica fleet: %v", i, err)
					continue
				}
				if resp.Fingerprint != pred.Fingerprint() {
					t.Errorf("call %d: response fingerprint %q, want the serving model's %q", i, resp.Fingerprint, pred.Fingerprint())
				}
			}
		}(g)
	}
	wg.Wait()
	// The killed replica's Shutdown waits for any connection the client
	// dialed to it but never used; closing idle connections ends that.
	hc.CloseIdleConnections()
	select {
	case <-killDone:
	case <-time.After(15 * time.Second):
		t.Fatal("replica shutdown never completed")
	}

	// Survivors (endpoints 1 and 2) must have shared the load within 2x.
	d1 := obs.C("client.endpoint.1.requests").Value() - before[1]
	d2 := obs.C("client.endpoint.2.requests").Value() - before[2]
	lo, hi := d1, d2
	if lo > hi {
		lo, hi = hi, lo
	}
	if lo == 0 {
		t.Fatalf("a survivor saw no traffic: %d vs %d", d1, d2)
	}
	if hi > 2*lo {
		t.Errorf("survivor spread %d vs %d exceeds 2x", d1, d2)
	}
}

// rawPost sends body to path and returns the raw response bytes.
func rawPost(t *testing.T, base, path, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(base+path, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// TestServeFleetV1BitCompat pins the v1 wire format two ways: /v1 and /v2
// must answer byte-identical bodies for the same request on the default
// model, and the v1 single-predict body must match a reconstructed golden
// encoding — field order, names, and trailing newline included.
func TestServeFleetV1BitCompat(t *testing.T) {
	pred := trainPredictor(t, unroll.NearNeighbor)
	cfg := fleetConfig(pred)
	cfg.CacheSize = -1 // cached flags would differ between the two calls
	_, c := newTestServer(t, cfg)
	base := c.Endpoints()[0]

	reqBody := fmt.Sprintf(`{"source":%q}`, testKernels[0])
	v1Status, v1 := rawPost(t, base, "/v1/predict", reqBody)
	v2Status, v2 := rawPost(t, base, "/v2/predict", reqBody)
	if v1Status != http.StatusOK || v2Status != http.StatusOK {
		t.Fatalf("status %d / %d", v1Status, v2Status)
	}
	if !bytes.Equal(v1, v2) {
		t.Fatalf("/v1/predict and /v2/predict disagree on the default model:\nv1: %s\nv2: %s", v1, v2)
	}

	// Golden v1 body, reconstructed from direct library calls.
	loop := parseKernel(t, testKernels[0])
	factor, err := pred.PredictCtx(context.Background(), loop)
	if err != nil {
		t.Fatal(err)
	}
	golden := fmt.Sprintf(`{"factor":%d,"loop":%q,"model_version":%d,"fingerprint":%q}`+"\n",
		factor, loop.Name, pred.Version(), pred.Fingerprint())
	if string(v1) != golden {
		t.Fatalf("/v1/predict body drifted from the recorded v1 encoding:\ngot:  %s\nwant: %s", v1, golden)
	}

	// Batch: same equivalence on a 3-loop request.
	batchBody := fmt.Sprintf(`{"loops":[{"source":%q},{"source":%q},{"source":%q}]}`,
		testKernels[1], testKernels[2], testKernels[3])
	b1Status, b1 := rawPost(t, base, "/v1/predict/batch", batchBody)
	b2Status, b2 := rawPost(t, base, "/v2/predict/batch", batchBody)
	if b1Status != http.StatusOK || b2Status != http.StatusOK {
		t.Fatalf("batch status %d / %d", b1Status, b2Status)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("/v1 and /v2 batch disagree:\nv1: %s\nv2: %s", b1, b2)
	}

	// v1 must ignore the v2 routing fields rather than honor them: an
	// unknown model pin is an error on /v2 and a no-op on /v1.
	pinned := fmt.Sprintf(`{"source":%q,"model":"nonesuch"}`, testKernels[0])
	if status, _ := rawPost(t, base, "/v1/predict", pinned); status != http.StatusOK {
		t.Errorf("/v1/predict rejected a body with v2 fields: %d", status)
	}
	if status, _ := rawPost(t, base, "/v2/predict", pinned); status != http.StatusNotFound {
		t.Errorf("/v2/predict with unknown model = %d, want 404", status)
	}
}

// TestServeFleetV2ModelRouting drives the registry through the wire: load
// a second version, pin requests to it by alias and fingerprint, check
// per-model and per-tenant accounting, then promote and evict.
func TestServeFleetV2ModelRouting(t *testing.T) {
	prim := trainPredictor(t, unroll.NearNeighbor)
	canary := trainPredictor(t, unroll.DecisionTree)
	if prim.Fingerprint() == canary.Fingerprint() {
		t.Fatal("test needs two distinct models")
	}
	canaryPath := filepath.Join(t.TempDir(), "canary.model")
	if err := canary.SaveFile(canaryPath); err != nil {
		t.Fatal(err)
	}

	cfg := fleetConfig(prim)
	cfg.CacheSize = -1 // pinned requests must reach the pinned model, not the cache
	_, c := newTestServer(t, cfg)
	ctx := context.Background()

	info, err := c.ModelLoad(ctx, client.ModelLoadRequest{Path: canaryPath, Alias: "canary", Pin: true})
	if err != nil {
		t.Fatal(err)
	}
	if info.Fingerprint != canary.Fingerprint() || !info.Pinned || len(info.Aliases) != 1 {
		t.Fatalf("load answered %+v", info)
	}

	// Pinned requests route to the canary; unpinned stay on the default.
	tenantReqs := obs.C("serve.tenant.acme.requests").Value()
	for _, pin := range []string{"canary", canary.Fingerprint(), canary.Fingerprint()[:12]} {
		resp, err := c.PredictV2(ctx, client.PredictV2Request{
			PredictRequest: client.PredictRequest{Source: testKernels[0]},
			Model:          pin,
			Tenant:         "acme",
		})
		if err != nil {
			t.Fatalf("pin %q: %v", pin, err)
		}
		if resp.Fingerprint != canary.Fingerprint() {
			t.Fatalf("pin %q served by %q, want canary %q", pin, resp.Fingerprint, canary.Fingerprint())
		}
	}
	if resp, err := c.PredictV2(ctx, client.PredictV2Request{PredictRequest: client.PredictRequest{Source: testKernels[0]}}); err != nil || resp.Fingerprint != prim.Fingerprint() {
		t.Fatalf("unpinned v2 request: %v (fingerprint %q)", err, resp.Fingerprint)
	}
	if got := obs.C("serve.tenant.acme.requests").Value() - tenantReqs; got != 3 {
		t.Errorf("serve.tenant.acme.requests moved %d, want 3", got)
	}
	fp12 := canary.Fingerprint()[:12]
	if obs.C("serve.model."+fp12+".requests").Value() == 0 {
		t.Error("per-model request counter never moved")
	}

	// Batch pinning routes the whole batch.
	bresp, err := c.PredictBatchV2(ctx, client.BatchV2Request{
		Loops: []client.PredictRequest{{Source: testKernels[1]}, {Source: testKernels[2]}},
		Model: "canary",
	})
	if err != nil || bresp.Fingerprint != canary.Fingerprint() {
		t.Fatalf("batch pin: %v (fingerprint %q)", err, bresp.Fingerprint)
	}

	// The registry listing shows both versions with the default marked.
	models, err := c.Models(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if models.Default != prim.Fingerprint() || len(models.Models) != 2 {
		t.Fatalf("listing %+v", models)
	}

	// Promote the canary; the default route follows; the old default can
	// then be evicted while the new one cannot.
	if _, err := c.ModelPromote(ctx, "canary"); err != nil {
		t.Fatal(err)
	}
	if resp, err := c.PredictV2(ctx, client.PredictV2Request{PredictRequest: client.PredictRequest{Source: testKernels[3]}}); err != nil || resp.Fingerprint != canary.Fingerprint() {
		t.Fatalf("post-promote default: %v (fingerprint %q)", err, resp.Fingerprint)
	}
	if mi, err := c.Model(ctx); err != nil || mi.Fingerprint != canary.Fingerprint() || !mi.Default {
		t.Fatalf("GET /v1/model after promote: %+v, %v", mi, err)
	}
	if _, err := c.ModelEvict(ctx, "canary"); !errors.Is(err, &client.APIError{Code: client.CodeConflict}) {
		t.Fatalf("evicting the default = %v, want conflict", err)
	}
	if _, err := c.ModelEvict(ctx, prim.Fingerprint()); err != nil {
		t.Fatal(err)
	}
	if models, err := c.Models(ctx); err != nil || len(models.Models) != 1 {
		t.Fatalf("post-evict listing: %+v, %v", models, err)
	}
	if _, err := c.ModelPromote(ctx, "nonesuch"); !errors.Is(err, &client.APIError{Code: client.CodeNotFound}) {
		t.Fatalf("promoting an unknown ref = %v, want not_found", err)
	}
}
