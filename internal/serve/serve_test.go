package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"metaopt/internal/lang"
	"metaopt/internal/loopgen"
	"metaopt/unroll"
	"metaopt/unroll/client"
)

// testKernels are the query loops every test predicts; varied enough that
// different models disagree on some of them.
var testKernels = []string{
	`kernel daxpy lang=c { param double a; double x[], y[]; noalias; for i = 0 .. 4096 { y[i] = y[i] + a * x[i]; } }`,
	`kernel dot lang=fortran { double a[], b[]; double s; for i = 0 .. 1024 { s = s + a[i]*b[i]; } }`,
	`kernel scale lang=c { double x[]; noalias; for i = 0 .. 256 { x[i] = x[i] * 2.0; } }`,
	`kernel copy lang=c { double a[], b[]; noalias; for i = 0 .. 512 { a[i] = b[i]; } }`,
	`kernel saxpy2 lang=fortran { param double a; double x[], y[], z[]; for i = 0 .. 2048 { z[i] = y[i] + a * x[i]; } }`,
	`kernel gather lang=c { double a[]; int k[]; for i = 0 .. 64 { a[k[i]] = a[k[i]] + 1.0; } }`,
	`kernel stencil lang=c { double a[], b[]; noalias; for i = 1 .. 511 { b[i] = a[i-1] + a[i] + a[i+1]; } }`,
	`kernel square lang=c { double x[], y[]; noalias; for i = 0 .. 128 { y[i] = x[i] * x[i]; } }`,
}

var (
	datasetOnce sync.Once
	dataset     *unroll.Dataset
	datasetErr  error
)

// testDataset collects one small labeled corpus shared by every test.
func testDataset(t *testing.T) *unroll.Dataset {
	t.Helper()
	datasetOnce.Do(func() {
		c, err := unroll.GenerateCorpus(7, 0.05)
		if err != nil {
			datasetErr = err
			return
		}
		dataset, datasetErr = unroll.CollectDataset(c, unroll.CollectOptions{Seed: 1, Runs: 3})
	})
	if datasetErr != nil {
		t.Fatal(datasetErr)
	}
	return dataset
}

func trainPredictor(t *testing.T, alg unroll.Algorithm) *unroll.Predictor {
	t.Helper()
	p, err := unroll.Train(testDataset(t), unroll.TrainOptions{Algorithm: alg, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func parseKernel(t *testing.T, src string) *unroll.Loop {
	t.Helper()
	l, err := unroll.ParseKernel(src)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// newTestServer boots a server on an ephemeral port and returns it with a
// client pointed at it. The server is drained at test end.
func newTestServer(t *testing.T, cfg Config) (*Server, *client.Client) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hc := &http.Client{Transport: http.DefaultTransport.(*http.Transport).Clone()}
	c, err := client.NewClient(client.Config{Endpoints: []string{"http://" + addr}, HTTPClient: hc})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		// Concurrent requests can leave the client holding a connection
		// it dialed but never used. The server sees it as new, and
		// http.Server.Shutdown waits up to 5 s for a new connection's
		// first request, so close the client's idle connections first.
		hc.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, c
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestServeConcurrentBitIdentical holds the worker pool until 96 requests
// (64 singles + 32 full batches) are simultaneously in flight, then
// releases them and checks every response against a direct library call.
func TestServeConcurrentBitIdentical(t *testing.T) {
	pred := trainPredictor(t, unroll.NearNeighbor)
	expected := make([]int, len(testKernels))
	for i, src := range testKernels {
		u, err := pred.PredictCtx(context.Background(), parseKernel(t, src))
		if err != nil {
			t.Fatal(err)
		}
		expected[i] = u
	}

	s, c := newTestServer(t, Config{
		Model:          pred,
		QueueDepth:     256,
		Workers:        1,
		MaxBatch:       8,
		CacheSize:      -1, // every request must compute
		RequestTimeout: 30 * time.Second,
	})
	gate := make(chan struct{})
	s.preBatch = func() { <-gate }

	const singles, batches = 64, 32
	reqsBefore := mReqs.Value()
	var wg sync.WaitGroup
	var mismatches, failures atomic.Int64
	for g := 0; g < singles; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			k := g % len(testKernels)
			resp, err := c.Predict(context.Background(), client.PredictRequest{Source: testKernels[k]})
			if err != nil {
				t.Errorf("single %d: %v", g, err)
				failures.Add(1)
				return
			}
			if resp.Factor != expected[k] {
				t.Errorf("single %d: factor %d, library says %d", g, resp.Factor, expected[k])
				mismatches.Add(1)
			}
			if resp.Fingerprint != pred.Fingerprint() {
				t.Errorf("single %d: fingerprint %q", g, resp.Fingerprint)
			}
		}(g)
	}
	for g := 0; g < batches; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			reqs := make([]client.PredictRequest, len(testKernels))
			for i, src := range testKernels {
				reqs[i] = client.PredictRequest{Source: src}
			}
			resp, err := c.PredictBatch(context.Background(), reqs)
			if err != nil {
				t.Errorf("batch %d: %v", g, err)
				failures.Add(1)
				return
			}
			for i, res := range resp.Results {
				if res.Error != "" {
					t.Errorf("batch %d loop %d: %s", g, i, res.Error)
					failures.Add(1)
				} else if res.Factor != expected[i] {
					t.Errorf("batch %d loop %d: factor %d, library says %d", g, i, res.Factor, expected[i])
					mismatches.Add(1)
				}
			}
		}(g)
	}

	// With the worker gated, every accepted request stays in flight: once
	// the counter shows all 96 arrived, they are concurrently open.
	waitFor(t, "96 in-flight requests", func() bool {
		return mReqs.Value()-reqsBefore >= singles+batches
	})
	close(gate)
	wg.Wait()
	if n := failures.Load(); n > 0 {
		t.Fatalf("%d requests failed", n)
	}
	if n := mismatches.Load(); n > 0 {
		t.Fatalf("%d predictions differ from direct library calls", n)
	}
}

// TestServeBackpressureConcurrent saturates a queue of depth 1 behind one
// held worker and checks the third request is shed with 503 + Retry-After.
func TestServeBackpressureConcurrent(t *testing.T) {
	pred := trainPredictor(t, unroll.NearNeighbor)
	s, c := newTestServer(t, Config{
		Model:          pred,
		QueueDepth:     1,
		Workers:        1,
		MaxBatch:       1,
		CacheSize:      -1,
		RequestTimeout: 30 * time.Second,
	})
	gate := make(chan struct{})
	entered := make(chan struct{}, 16)
	s.preBatch = func() {
		entered <- struct{}{}
		<-gate
	}

	results := make(chan error, 2)
	send := func() {
		_, err := c.Predict(context.Background(), client.PredictRequest{Source: testKernels[0]})
		results <- err
	}
	go send() // A: picked up by the worker, which blocks
	<-entered
	go send() // B: sits in the queue
	waitFor(t, "queue to fill", func() bool { return len(s.queue) == 1 })

	// C: queue full — must be shed, not queued.
	_, err := c.Predict(context.Background(), client.PredictRequest{Source: testKernels[1]})
	if !client.IsOverloaded(err) {
		t.Fatalf("expected 503 under saturation, got %v", err)
	}
	if ae := err.(*client.APIError); ae.RetryAfter <= 0 {
		t.Errorf("503 without Retry-After hint: %+v", ae)
	}

	close(gate)
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Errorf("admitted request failed: %v", err)
		}
	}
}

// TestServeDrainConcurrent starts a drain with one request held and 15
// queued: all 16 must complete, later requests must be refused, and
// Shutdown must return only after the queue is empty. The drain starts
// only once every request is admitted — held by the blocked worker, which
// takes one job per dispatch, or queued — since a request still being
// decoded when the drain begins is refused.
func TestServeDrainConcurrent(t *testing.T) {
	pred := trainPredictor(t, unroll.NearNeighbor)
	s, c := newTestServer(t, Config{
		Model:          pred,
		QueueDepth:     64,
		Workers:        1,
		MaxBatch:       1,
		CacheSize:      -1,
		RequestTimeout: 30 * time.Second,
	})
	gate := make(chan struct{})
	entered := make(chan struct{}, 64)
	s.preBatch = func() {
		entered <- struct{}{}
		<-gate
	}

	const n = 16
	results := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			_, err := c.Predict(context.Background(),
				client.PredictRequest{Source: testKernels[i%len(testKernels)]})
			results <- err
		}(i)
	}
	<-entered
	waitFor(t, "all requests admitted", func() bool { return len(s.queue) == n-1 })

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()
	waitFor(t, "drain to start", s.draining.Load)

	// Readiness flips and new work is refused while draining.
	if err := c.Readyz(context.Background()); !client.IsOverloaded(err) {
		t.Errorf("readyz during drain: %v", err)
	}
	if _, err := c.Predict(context.Background(), client.PredictRequest{Source: testKernels[0]}); !client.IsOverloaded(err) {
		t.Errorf("predict during drain: %v", err)
	}

	close(gate)
	for i := 0; i < n; i++ {
		if err := <-results; err != nil {
			t.Errorf("request failed during graceful drain: %v", err)
		}
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if len(s.queue) != 0 {
		t.Errorf("queue not drained: %d jobs left", len(s.queue))
	}
}

// TestServeReloadConcurrent swaps the model under concurrent traffic: no
// request may fail, and once the swap lands fresh predictions must come
// from the new model (including past the cache, which keys on the
// fingerprint).
func TestServeReloadConcurrent(t *testing.T) {
	nnPred := trainPredictor(t, unroll.NearNeighbor)
	treePred := trainPredictor(t, unroll.DecisionTree)
	if nnPred.Fingerprint() == treePred.Fingerprint() {
		t.Fatal("test models share a fingerprint")
	}
	path := filepath.Join(t.TempDir(), "tree.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := treePred.Save(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	_, c := newTestServer(t, Config{Model: nnPred, RequestTimeout: 30 * time.Second})
	ctx := context.Background()

	// Prime the cache under the old model.
	first, err := c.Predict(ctx, client.PredictRequest{Source: testKernels[0]})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var failures atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := c.Predict(ctx, client.PredictRequest{Source: testKernels[(g+i)%len(testKernels)]})
				if err != nil {
					t.Errorf("traffic during reload failed: %v", err)
					failures.Add(1)
					return
				}
				if resp.Factor < 1 || resp.Factor > unroll.MaxFactor {
					t.Errorf("factor %d out of range", resp.Factor)
					failures.Add(1)
					return
				}
			}
		}(g)
	}

	rl, err := c.Reload(ctx, path)
	if err != nil {
		t.Fatalf("reload: %v", err)
	}
	if rl.Previous != nnPred.Fingerprint() || rl.Fingerprint != treePred.Fingerprint() {
		t.Errorf("reload fingerprints: %+v", rl)
	}
	close(stop)
	wg.Wait()
	if failures.Load() > 0 {
		t.Fatal("requests failed across the swap")
	}

	info, err := c.Model(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info.Fingerprint != treePred.Fingerprint() {
		t.Errorf("served model after reload: %+v", info)
	}
	// The old model's cache entry must not answer for the new model.
	want, err := treePred.PredictCtx(ctx, parseKernel(t, testKernels[0]))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Predict(ctx, client.PredictRequest{Source: testKernels[0]})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Factor != want {
		t.Errorf("post-reload factor %d, new model says %d (old model said %d)", resp.Factor, want, first.Factor)
	}
	if resp.Fingerprint != treePred.Fingerprint() {
		t.Errorf("post-reload fingerprint %q", resp.Fingerprint)
	}

	// A missing artifact must fail the reload and keep the current model.
	if _, err := c.Reload(ctx, filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("expected reload error for missing artifact")
	}
	if info, err := c.Model(ctx); err != nil || info.Fingerprint != treePred.Fingerprint() {
		t.Errorf("model changed after failed reload: %+v, %v", info, err)
	}
}

func TestServeCacheHits(t *testing.T) {
	pred := trainPredictor(t, unroll.NearNeighbor)
	_, c := newTestServer(t, Config{Model: pred, RequestTimeout: 30 * time.Second})
	ctx := context.Background()

	first, err := c.Predict(ctx, client.PredictRequest{Source: testKernels[2]})
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Error("first query claims a cache hit")
	}
	second, err := c.Predict(ctx, client.PredictRequest{Source: testKernels[2]})
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached || second.Factor != first.Factor {
		t.Errorf("second query: cached=%v factor=%d vs %d", second.Cached, second.Factor, first.Factor)
	}
	// Whitespace-only source changes hash to the same canonical loop.
	reformatted := "\n" + testKernels[2] + "\n"
	third, err := c.Predict(ctx, client.PredictRequest{Source: reformatted})
	if err != nil {
		t.Fatal(err)
	}
	if !third.Cached {
		t.Error("canonicalization missed: reformatted source was a cache miss")
	}
}

func TestServeFeatureVectorParity(t *testing.T) {
	pred := trainPredictor(t, unroll.NearNeighbor)
	_, c := newTestServer(t, Config{Model: pred, RequestTimeout: 30 * time.Second})
	ctx := context.Background()
	for _, src := range testKernels[:3] {
		l := parseKernel(t, src)
		want, err := pred.PredictFeatures(unroll.Features(l, unroll.Itanium2()))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := c.Predict(ctx, client.PredictRequest{Features: unroll.Features(l, unroll.Itanium2())})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Factor != want {
			t.Errorf("%s: feature-vector factor %d, library says %d", l.Name, resp.Factor, want)
		}
	}
}

func TestServeRejectsBadRequests(t *testing.T) {
	pred := trainPredictor(t, unroll.NearNeighbor)
	_, c := newTestServer(t, Config{Model: pred})
	ctx := context.Background()

	cases := []client.PredictRequest{
		{}, // neither source nor features
		{Source: testKernels[0], Features: []float64{1}}, // both
		{Source: "kernel {"},                             // parse error
	}
	for i, req := range cases {
		_, err := c.Predict(ctx, req)
		ae, ok := err.(*client.APIError)
		if !ok || ae.Status != http.StatusBadRequest {
			t.Errorf("case %d: want 400, got %v", i, err)
		}
	}
	// A wrong-length feature vector is a prediction-layer failure.
	if _, err := c.Predict(ctx, client.PredictRequest{Features: []float64{1, 2, 3}}); err == nil {
		t.Error("expected error for short feature vector")
	}
	// Batch: per-item errors don't fail the healthy items.
	resp, err := c.PredictBatch(ctx, []client.PredictRequest{
		{Source: testKernels[0]},
		{Source: "kernel {"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Results[0].Error != "" || resp.Results[0].Factor < 1 {
		t.Errorf("healthy batch item: %+v", resp.Results[0])
	}
	if resp.Results[1].Error == "" {
		t.Error("broken batch item reported no error")
	}
}

func TestServeHealthReady(t *testing.T) {
	pred := trainPredictor(t, unroll.NearNeighbor)
	_, c := newTestServer(t, Config{Model: pred})
	ctx := context.Background()
	if err := c.Healthz(ctx); err != nil {
		t.Errorf("healthz: %v", err)
	}
	if err := c.Readyz(ctx); err != nil {
		t.Errorf("readyz: %v", err)
	}
	info, err := c.Model(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info.Fingerprint != pred.Fingerprint() || info.ModelVersion != unroll.PersistVersion {
		t.Errorf("model info: %+v", info)
	}
}

// uncompilableArtifact writes a near-neighbor artifact whose exemplar
// table is ragged: it loads, but its compiled lowering fails.
func uncompilableArtifact(t *testing.T) string {
	t.Helper()
	var buf bytes.Buffer
	if err := trainPredictor(t, unroll.NearNeighbor).Save(&buf); err != nil {
		t.Fatal(err)
	}
	var env, model map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(env["model"], &model); err != nil {
		t.Fatal(err)
	}
	var rows [][]float64
	if err := json.Unmarshal(model["rows"], &rows); err != nil {
		t.Fatal(err)
	}
	rows[0] = rows[0][:len(rows[0])-1]
	var err error
	if model["rows"], err = json.Marshal(rows); err != nil {
		t.Fatal(err)
	}
	if env["model"], err = json.Marshal(model); err != nil {
		t.Fatal(err)
	}
	delete(env, "fingerprint") // loads as an unverified blob
	blob, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ragged.json")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := unroll.LoadPredictorFile(path); err != nil {
		t.Fatalf("ragged artifact must load: %v", err)
	}
	return path
}

// TestServeRefusesUncompilableModel: a model whose compiled lowering fails
// is refused at load, reload and shadow like any other bad artifact, and
// the serving model is unchanged.
func TestServeRefusesUncompilableModel(t *testing.T) {
	pred := trainPredictor(t, unroll.DecisionTree)
	path := uncompilableArtifact(t)
	_, c := newTestServer(t, Config{Model: pred})
	ctx := context.Background()

	if _, err := c.Reload(ctx, path); err == nil {
		t.Error("reload accepted a model that does not compile")
	}
	if _, err := c.ModelLoad(ctx, client.ModelLoadRequest{Path: path}); err == nil {
		t.Error("admin load accepted a model that does not compile")
	}
	if _, err := c.Shadow(ctx, path, 1); err == nil {
		t.Error("shadow accepted a model that does not compile")
	}
	models, err := c.Models(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(models.Models) != 1 || models.Models[0].Fingerprint != pred.Fingerprint() {
		t.Errorf("registry after refused loads: %+v", models.Models)
	}
	if info, err := c.Model(ctx); err != nil || info.Fingerprint != pred.Fingerprint() || info.Compiled == "" {
		t.Errorf("serving model after refused loads: %+v, %v", info, err)
	}
}

// TestServeCacheKeySeesNoAlias: two sources that differ only by noalias
// lower to loops with different features, so each gets its own cache
// entry and its own factor.
func TestServeCacheKeySeesNoAlias(t *testing.T) {
	pred := trainPredictor(t, unroll.NearNeighbor)
	_, c := newTestServer(t, Config{Model: pred, RequestTimeout: 30 * time.Second})
	ctx := context.Background()
	srcs := []string{
		`kernel copy lang=c { double a[], b[]; for i = 0 .. 512 { a[i] = b[i] + a[i-1]; } }`,
		`kernel copy lang=c { double a[], b[]; noalias; for i = 0 .. 512 { a[i] = b[i] + a[i-1]; } }`,
	}
	m := unroll.Itanium2()
	if f0, f1 := unroll.Features(parseKernel(t, srcs[0]), m), unroll.Features(parseKernel(t, srcs[1]), m); slices.Equal(f0, f1) {
		t.Fatal("noalias does not change the features of the test kernel")
	}
	for i, src := range srcs {
		want, err := pred.PredictCtx(ctx, parseKernel(t, src))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := c.Predict(ctx, client.PredictRequest{Source: src})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Cached {
			t.Errorf("source %d answered from another loop's cache entry", i)
		}
		if resp.Factor != want {
			t.Errorf("source %d: factor %d, library says %d", i, resp.Factor, want)
		}
	}
}

// TestCacheKeyPrintImpliesFeatures checks the premise of the source cache
// key over the held-out corpus the serve benchmark replays: sources that
// lex to the same tokens lower to loops that print alike, and loops that
// print alike extract equal feature vectors, so a cache hit can only
// return the factor the loop itself would get.
func TestCacheKeyPrintImpliesFeatures(t *testing.T) {
	held, err := loopgen.Generate(loopgen.Options{Seed: 2005, LoopsScale: 1, Replicate: 2})
	if err != nil {
		t.Fatal(err)
	}
	m := unroll.Itanium2()
	byPrint := map[string][]float64{}
	byTokens := map[string]string{}
	n, shared := 0, 0
	for _, b := range held.Benchmarks {
		for _, src := range b.Sources {
			l := parseKernel(t, src)
			v := unroll.Features(l, m)
			key := l.String()
			toks, err := lang.Lex(src)
			if err != nil {
				t.Fatal(err)
			}
			tk := string(toks.AppendKey(nil))
			toks.Release()
			if prev, ok := byTokens[tk]; ok && prev != key {
				t.Fatalf("%s lexes like an earlier source but prints differently:\n%s\n%s", l.Name, prev, key)
			}
			byTokens[tk] = key
			n++
			if prev, ok := byPrint[key]; ok {
				shared++
				if !slices.Equal(prev, v) {
					t.Fatalf("%s prints like an earlier loop but extracts different features:\n%s", l.Name, key)
				}
				continue
			}
			byPrint[key] = v
		}
	}
	t.Logf("%d loops, %d distinct token streams, %d distinct prints, %d sharing a print", n, len(byTokens), len(byPrint), shared)
}

// TestServeTokenKeyedCache: the cache is keyed by the source's tokens. A
// variant that differs only in comments and layout hits, on both routes,
// and the hit answers with the loop's name; a one-token edit misses and
// gets its own factor.
func TestServeTokenKeyedCache(t *testing.T) {
	pred := trainPredictor(t, unroll.NearNeighbor)
	_, c := newTestServer(t, Config{Model: pred, RequestTimeout: 30 * time.Second})
	ctx := context.Background()
	const src = `kernel daxpy lang=c { param double a; double x[], y[]; noalias; for i = 0 .. 4096 { y[i] = y[i] + a * x[i]; } }`
	const commented = "/* the same loop */ kernel daxpy lang=c {\n\tparam double a; // scale\n\tdouble x[], y[];\n\tnoalias;\n\tfor i = 0 .. 4096 {\n\t\ty[i] = y[i] + a * x[i]; /* fused */\n\t}\n}\n"
	const edited = `kernel daxpy lang=c { param double a; double x[], y[]; noalias; for i = 0 .. 4095 { y[i] = y[i] + a * x[i]; } }`

	first, err := c.Predict(ctx, client.PredictRequest{Source: src})
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached || first.Loop != "daxpy" {
		t.Errorf("first query: %+v", first)
	}
	hit, err := c.Predict(ctx, client.PredictRequest{Source: commented})
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Cached || hit.Factor != first.Factor || hit.Loop != "daxpy" {
		t.Errorf("comment variant: %+v, want a cache hit on %+v with the loop name", hit, first)
	}
	batch, err := c.PredictBatch(ctx, []client.PredictRequest{{Source: commented}, {Source: src}})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range batch.Results {
		if !r.Cached || r.Factor != first.Factor || r.Loop != "daxpy" || r.Error != "" {
			t.Errorf("batch item %d: %+v, want a cache hit with the loop name", i, r)
		}
	}

	want, err := pred.PredictCtx(ctx, parseKernel(t, edited))
	if err != nil {
		t.Fatal(err)
	}
	miss, err := c.Predict(ctx, client.PredictRequest{Source: edited})
	if err != nil {
		t.Fatal(err)
	}
	if miss.Cached || miss.Factor != want || miss.Loop != "daxpy" {
		t.Errorf("one-token edit: %+v, want an uncached factor %d", miss, want)
	}
}

// TestServeFrontendErrorsUncached: a source that does not lex, one that
// lexes but does not parse and one that parses but does not lower answer
// the frontend's error text, with the request's own positions, on the
// first and on a repeated request and on both routes; none counts as a
// cache hit.
func TestServeFrontendErrorsUncached(t *testing.T) {
	pred := trainPredictor(t, unroll.NearNeighbor)
	_, c := newTestServer(t, Config{Model: pred, RequestTimeout: 30 * time.Second})
	ctx := context.Background()
	cases := []struct{ src, want string }{
		{`kernel k lang=c { double a[]; for i = 0 .. 64 { a[i] = a[i] $ 1.0; } }`, `1:61: unexpected character "$"`},
		{`kernel k lang=c { double a[]; for i = 0 .. 64 { a[i] = ; } }`, `1:56: unexpected ; in expression`},
		{"kernel k lang=c {\n  double a[];\n  for i = 0 .. 64 { a[i] = ; }\n}", `3:28: unexpected ; in expression`},
		{`kernel k lang=c { double a[]; for i = 0 .. 64 { b[i] = a[i]; } }`, `1:49: store to undeclared array "b"`},
	}
	hits := mCacheHits.Value()
	for rep := 0; rep < 2; rep++ {
		for _, tc := range cases {
			_, err := c.Predict(ctx, client.PredictRequest{Source: tc.src})
			ae, ok := err.(*client.APIError)
			if !ok || ae.Status != http.StatusBadRequest || ae.Message != tc.want {
				t.Errorf("request %d of %q: %v, want 400 %q", rep+1, tc.src, err, tc.want)
			}
			resp, err := c.PredictBatch(ctx, []client.PredictRequest{{Source: tc.src}})
			if err != nil {
				t.Fatal(err)
			}
			if r := resp.Results[0]; r.Error != tc.want || r.Cached {
				t.Errorf("batch request %d of %q: %+v, want error %q", rep+1, tc.src, r, tc.want)
			}
		}
	}
	if got := mCacheHits.Value(); got != hits {
		t.Errorf("serve.cache.hits moved by %d on sources that do not lower", got-hits)
	}
}

// TestServeCacheDisabledMisses: with CacheSize -1 every request misses,
// repeats included, and is predicted afresh.
func TestServeCacheDisabledMisses(t *testing.T) {
	pred := trainPredictor(t, unroll.NearNeighbor)
	_, c := newTestServer(t, Config{Model: pred, CacheSize: -1, RequestTimeout: 30 * time.Second})
	ctx := context.Background()
	hits, misses := mCacheHits.Value(), mCacheMiss.Value()
	for rep := 0; rep < 2; rep++ {
		resp, err := c.Predict(ctx, client.PredictRequest{Source: testKernels[0]})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Cached || resp.Loop != "daxpy" {
			t.Errorf("request %d: %+v, want an uncached answer", rep+1, resp)
		}
		batch, err := c.PredictBatch(ctx, []client.PredictRequest{{Source: testKernels[1]}, {Features: unroll.Features(parseKernel(t, testKernels[2]), unroll.Itanium2())}})
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range batch.Results {
			if r.Cached || r.Error != "" {
				t.Errorf("request %d batch item %d: %+v, want an uncached answer", rep+1, i, r)
			}
		}
	}
	if got := mCacheHits.Value() - hits; got != 0 {
		t.Errorf("serve.cache.hits moved by %d with the cache disabled", got)
	}
	if got := mCacheMiss.Value() - misses; got != 6 {
		t.Errorf("serve.cache.misses moved by %d, want 6", got)
	}
}
