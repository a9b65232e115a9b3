package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"metaopt/internal/obs"
	"metaopt/unroll"
	"metaopt/unroll/client"
)

// newGET builds a GET request against the mux, failing the test on error.
func newGET(t *testing.T, target string) *http.Request {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, target, nil)
	if err != nil {
		t.Fatal(err)
	}
	return req
}

// doHandler runs one request straight through the server's mux.
func doHandler(s *Server, req *http.Request) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

func TestRetryAfterHint(t *testing.T) {
	cases := []struct {
		depth  int
		perSec float64
		want   int
	}{
		{0, 0, 30},     // unknown rate: maximum backoff
		{100, -1, 30},  // nonsense rate: maximum backoff
		{0, 10, 1},     // near-empty queue, healthy drain
		{9, 10, 1},     // (9+1)/10 = 1s exactly
		{100, 10, 11},  // ceil(101/10)
		{1000, 10, 30}, // 100s backlog clamps to 30
		{5, 1000, 1},   // sub-second backlog floors at 1
	}
	for _, c := range cases {
		if got := retryAfterHint(c.depth, c.perSec); got != c.want {
			t.Errorf("retryAfterHint(%d, %v) = %d, want %d", c.depth, c.perSec, got, c.want)
		}
	}
}

func TestDrainRateSampling(t *testing.T) {
	var d drainRate
	t0 := time.Unix(1000, 0)
	if r := d.perSec(0, t0); r != 0 {
		t.Fatalf("unprimed rate %v", r)
	}
	if r := d.perSec(500, t0.Add(time.Second)); r != 500 {
		t.Fatalf("rate after 500 jobs in 1s: %v", r)
	}
	// A sample younger than the floor returns the previous rate instead of
	// dividing by a near-zero interval.
	if r := d.perSec(600, t0.Add(time.Second+100*time.Millisecond)); r != 500 {
		t.Fatalf("sub-floor resample changed the rate: %v", r)
	}
	if r := d.perSec(1000, t0.Add(2*time.Second)); r != 500 {
		t.Fatalf("second full-interval sample: %v", r)
	}
}

func TestShadowSampledFraction(t *testing.T) {
	for _, mille := range []int64{0, 1, 250, 500, 999, 1000} {
		var picked int64
		for n := int64(1); n <= 1000; n++ {
			if shadowSampled(n, mille) {
				picked++
			}
		}
		if picked != mille {
			t.Errorf("mille=%d picked %d of 1000", mille, picked)
		}
	}
}

// TestServeMetricsEndpoint scrapes GET /metrics after live traffic and
// checks the exposition covers the serve request counters, the latency
// histogram, and the published SLO gauges.
func TestServeMetricsEndpoint(t *testing.T) {
	pred := trainPredictor(t, unroll.NearNeighbor)
	s, c := newTestServer(t, Config{Model: pred, RequestTimeout: 30 * time.Second})
	ctx := context.Background()
	if _, err := c.Predict(ctx, client.PredictRequest{Source: testKernels[0]}); err != nil {
		t.Fatal(err)
	}

	req := newGET(t, "/metrics")
	rec := doHandler(s, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics: %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != obs.PromContentType {
		t.Errorf("content type %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"# TYPE serve_requests_total counter",
		"serve_requests_total ",
		`serve_latency_us_bucket{le="`,
		"serve_latency_us_sum ",
		"serve_latency_us_count ",
		"serve_queue_wait_us_count ",
		"serve_slo_availability_ppm ",
		"serve_slo_burn_rate_milli ",
		"serve_slo_p99_us ",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape missing %q\n%.800s", want, body)
		}
	}
}

// TestServeRequestIDEcho checks a well-formed client X-Request-Id is
// honored and echoed, a malformed one is replaced, and X-Trace-Id works
// as the fallback header.
func TestServeRequestIDEcho(t *testing.T) {
	pred := trainPredictor(t, unroll.NearNeighbor)
	s, _ := newTestServer(t, Config{Model: pred, RequestTimeout: 30 * time.Second})

	predictBody := func() io.Reader {
		b, _ := json.Marshal(client.PredictRequest{Source: testKernels[0]})
		return bytes.NewReader(b)
	}
	post := func(hdr, val string) string {
		req, err := http.NewRequest(http.MethodPost, "/v1/predict", predictBody())
		if err != nil {
			t.Fatal(err)
		}
		if hdr != "" {
			req.Header.Set(hdr, val)
		}
		rec := doHandler(s, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("predict: %d %s", rec.Code, rec.Body.String())
		}
		return rec.Header().Get("X-Request-Id")
	}

	if got := post("X-Request-Id", "build-42.attempt-1"); got != "build-42.attempt-1" {
		t.Errorf("valid X-Request-Id not echoed: %q", got)
	}
	if got := post("X-Trace-Id", "trace-abc"); got != "trace-abc" {
		t.Errorf("X-Trace-Id fallback not honored: %q", got)
	}
	if got := post("X-Request-Id", "bad id with spaces"); got == "bad id with spaces" || got == "" {
		t.Errorf("malformed ID propagated: %q", got)
	}
	if got := post("X-Request-Id", strings.Repeat("a", 65)); len(got) > 64 {
		t.Errorf("oversized ID propagated: %q", got)
	}
	if got := post("", ""); got == "" {
		t.Error("no server-generated ID without client header")
	}
}

// TestServeTracedStages drives one uncached predict and checks the
// request lands in the trace ring with its pipeline stages recorded.
func TestServeTracedStages(t *testing.T) {
	obs.DefaultRequests.Reset()
	obs.DefaultRequests.SetSlowThreshold(0)
	pred := trainPredictor(t, unroll.NearNeighbor)
	s, _ := newTestServer(t, Config{Model: pred, CacheSize: -1, RequestTimeout: 30 * time.Second})

	b, _ := json.Marshal(client.PredictRequest{Source: testKernels[0]})
	req, err := http.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", "trace-test-1")
	if rec := doHandler(s, req); rec.Code != http.StatusOK {
		t.Fatalf("predict: %d %s", rec.Code, rec.Body.String())
	}

	var found *obs.RequestTraceRecord
	for _, r := range obs.DefaultRequests.Snapshot() {
		if r.ID == "trace-test-1" {
			rr := r
			found = &rr
			break
		}
	}
	if found == nil {
		t.Fatal("request missing from the trace ring")
	}
	if found.TotalNS <= 0 {
		t.Errorf("total %dns", found.TotalNS)
	}
	stages := map[string]bool{}
	for _, st := range found.Stages() {
		stages[st.Name] = true
		if st.DurNS < 0 || st.StartNS < 0 {
			t.Errorf("stage %s has negative span: %+v", st.Name, st)
		}
	}
	for _, want := range []string{"admission", "queue_wait", "batch_assembly", "cache_lookup", "predict", "encode"} {
		if !stages[want] {
			t.Errorf("stage %q missing from trace: %v", want, stages)
		}
	}

	// The Chrome export of the ring must parse and contain the request.
	req = newGET(t, "/debug/traces?format=chrome")
	rec := doHandler(s, req)
	var events []map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &events); err != nil {
		t.Fatalf("chrome export: %v", err)
	}
	var hasReq bool
	for _, ev := range events {
		if ev["name"] == "request trace-test-1" {
			hasReq = true
		}
	}
	if !hasReq {
		t.Error("chrome export missing the request event")
	}
}

// TestServeReadyzSLODetail checks the 200 readyz body carries the SLO
// reading.
func TestServeReadyzSLODetail(t *testing.T) {
	pred := trainPredictor(t, unroll.NearNeighbor)
	s, c := newTestServer(t, Config{Model: pred, RequestTimeout: 30 * time.Second})
	if _, err := c.Predict(context.Background(), client.PredictRequest{Source: testKernels[1]}); err != nil {
		t.Fatal(err)
	}
	rec := doHandler(s, newGET(t, "/readyz"))
	if rec.Code != http.StatusOK {
		t.Fatalf("readyz: %d", rec.Code)
	}
	var detail struct {
		Status string        `json:"status"`
		SLO    obs.SLOStatus `json:"slo"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &detail); err != nil {
		t.Fatalf("readyz body: %v\n%s", err, rec.Body.String())
	}
	if detail.Status != "ok" {
		t.Errorf("status %q", detail.Status)
	}
	if detail.SLO.Total < 1 {
		t.Errorf("SLO window saw no requests: %+v", detail.SLO)
	}
	if !detail.SLO.AvailabilityOK {
		t.Errorf("healthy traffic reads unavailable: %+v", detail.SLO)
	}
}

// TestServeShadowIdenticalModel mirrors 100% of traffic to a shadow
// loaded from the very same artifact: agreement must be total, the
// confusion matrix diagonal, and — the core safety property — every
// primary response identical to a direct library call.
func TestServeShadowIdenticalModel(t *testing.T) {
	pred := trainPredictor(t, unroll.NearNeighbor)
	path := filepath.Join(t.TempDir(), "same.json")
	if err := pred.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	_, c := newTestServer(t, Config{
		Model:          pred,
		CacheSize:      -1, // cache hits are not mirrored; force every request through the model
		RequestTimeout: 30 * time.Second,
	})
	ctx := context.Background()

	sh, err := c.Shadow(ctx, path, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if !sh.Enabled || sh.Fingerprint != pred.Fingerprint() || sh.Fraction != 1.0 {
		t.Fatalf("shadow response: %+v", sh)
	}

	const rounds = 4
	total := 0
	for r := 0; r < rounds; r++ {
		for i, src := range testKernels {
			want, err := pred.PredictCtx(ctx, parseKernel(t, src))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := c.Predict(ctx, client.PredictRequest{Source: src})
			if err != nil {
				t.Fatalf("round %d kernel %d: %v", r, i, err)
			}
			if resp.Factor != want {
				t.Fatalf("shadowing changed a primary answer: kernel %d factor %d, library says %d", i, resp.Factor, want)
			}
			total++
		}
	}

	// The mirror queue drains asynchronously; wait for every sample.
	var rep *client.ShadowReport
	waitFor(t, "shadow mirror to drain", func() bool {
		rep, err = c.ShadowReport(ctx)
		return err == nil && rep.Mirrored+rep.Dropped+rep.Errors >= int64(total)
	})
	if rep.Sampled != int64(total) {
		t.Errorf("sampled %d of %d eligible requests at fraction 1.0", rep.Sampled, total)
	}
	if rep.Errors != 0 || rep.Dropped != 0 {
		t.Errorf("shadow errors=%d dropped=%d", rep.Errors, rep.Dropped)
	}
	if rep.Disagree != 0 || rep.Agree != rep.Mirrored || rep.AgreementRate != 1.0 {
		t.Errorf("identical model must agree 100%%: %+v", rep)
	}
	for _, cell := range rep.Confusion {
		if cell.Primary != cell.Shadow {
			t.Errorf("off-diagonal confusion cell for identical models: %+v", cell)
		}
	}

	// Disabling returns an empty report.
	if _, err := c.Shadow(ctx, "", 0); err != nil {
		t.Fatal(err)
	}
	rep, err = c.ShadowReport(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Enabled {
		t.Errorf("shadow still enabled after disable: %+v", rep)
	}
}

// TestServeShadowFraction checks sub-unity mirroring samples the exact
// deterministic count.
func TestServeShadowFraction(t *testing.T) {
	pred := trainPredictor(t, unroll.NearNeighbor)
	path := filepath.Join(t.TempDir(), "same.json")
	if err := pred.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	_, c := newTestServer(t, Config{Model: pred, CacheSize: -1, RequestTimeout: 30 * time.Second})
	ctx := context.Background()
	if _, err := c.Shadow(ctx, path, 0.5); err != nil {
		t.Fatal(err)
	}
	const total = 40
	for i := 0; i < total; i++ {
		if _, err := c.Predict(ctx, client.PredictRequest{Source: testKernels[i%len(testKernels)]}); err != nil {
			t.Fatal(err)
		}
	}
	var rep *client.ShadowReport
	var err error
	waitFor(t, "half mirror to drain", func() bool {
		rep, err = c.ShadowReport(ctx)
		return err == nil && rep.Mirrored >= total/2
	})
	if rep.Sampled != total {
		t.Errorf("sampled %d of %d eligible", rep.Sampled, total)
	}
	if rep.Mirrored != total/2 {
		t.Errorf("mirrored %d of %d at fraction 0.5", rep.Mirrored, total)
	}
}

// TestServeShadowScoresPinnedVersion mirrors /v2 traffic pinned to a
// non-default version to a shadow of that same version. The shadow must
// be compared with the version that answered, not the default: here the
// default reads five features and cannot take the pinned requests'
// three, so scoring against it turns every sample into an error.
func TestServeShadowScoresPinnedVersion(t *testing.T) {
	train := func(feats []int) *unroll.Predictor {
		p, err := unroll.Train(testDataset(t), unroll.TrainOptions{Algorithm: unroll.NearNeighbor, Features: feats, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	def, pinned := train([]int{0, 1, 2, 3, 4}), train([]int{5, 6, 7})
	path := filepath.Join(t.TempDir(), "pinned.json")
	if err := pinned.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	_, c := newTestServer(t, Config{Model: def, CacheSize: -1, RequestTimeout: 30 * time.Second})
	ctx := context.Background()
	if _, err := c.ModelLoad(ctx, client.ModelLoadRequest{Path: path, Alias: "b"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Shadow(ctx, path, 1.0); err != nil {
		t.Fatal(err)
	}

	const total = 10
	for i := 0; i < total; i++ {
		full := unroll.Features(parseKernel(t, testKernels[i%len(testKernels)]), unroll.Itanium2())
		resp, err := c.PredictV2(ctx, client.PredictV2Request{
			PredictRequest: client.PredictRequest{Features: []float64{full[5], full[6], full[7]}},
			Model:          "b",
		})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Fingerprint != pinned.Fingerprint() {
			t.Fatalf("pinned request served by %q, want %q", resp.Fingerprint, pinned.Fingerprint())
		}
	}
	var rep *client.ShadowReport
	var err error
	waitFor(t, "shadow mirror to drain", func() bool {
		rep, err = c.ShadowReport(ctx)
		return err == nil && rep.Mirrored+rep.Dropped+rep.Errors >= total
	})
	if rep.Mirrored != total || rep.Agree != total || rep.Errors != 0 {
		t.Errorf("shadow of the pinned version: mirrored %d, agree %d, errors %d; want %d, %d, 0",
			rep.Mirrored, rep.Agree, rep.Errors, total, total)
	}
}

// TestServeRecordsNoPhaseSpans checks that answering requests adds no
// record to the process-wide research trace: it holds at most 65,536
// records, so a long-running server would fill it and /debug/trace would
// show only its first dispatches. Per-request traces time each request.
func TestServeRecordsNoPhaseSpans(t *testing.T) {
	defer obs.SetEnabled(true)()
	pred := trainPredictor(t, unroll.NearNeighbor)
	_, c := newTestServer(t, Config{Model: pred, RequestTimeout: 30 * time.Second})
	ctx := context.Background()
	feats := unroll.Features(parseKernel(t, testKernels[1]), unroll.Itanium2())

	before, dropped := len(obs.DefaultTrace.Spans()), obs.DefaultTrace.Dropped()
	if _, err := c.Predict(ctx, client.PredictRequest{Source: testKernels[0]}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Predict(ctx, client.PredictRequest{Features: feats}); err != nil {
		t.Fatal(err)
	}
	batch := []client.PredictRequest{{Source: testKernels[2]}, {Features: feats}, {Source: testKernels[0]}}
	if _, err := c.PredictBatch(ctx, batch); err != nil {
		t.Fatal(err)
	}
	if n, d := len(obs.DefaultTrace.Spans()), obs.DefaultTrace.Dropped(); n != before || d != dropped {
		t.Errorf("serving recorded %d spans (%d dropped) in the research trace, want none", n-before, d-dropped)
	}
}
