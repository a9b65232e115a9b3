package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"metaopt/internal/loopgen"
	"metaopt/internal/serve"
	"metaopt/unroll"
	"metaopt/unroll/client"
)

const (
	batchLoops  = 32   // LoopLang sources per batch request
	clients     = 2    // closed-loop client connections
	streamLen   = 4096 // requests in the seeded stream, cycled
	recentReach = 1024 // repeats draw from this many latest fresh loops
	warmupReqs  = 300  // untimed requests: fill the cache, settle the heap
	replayReqs  = 256  // traced requests whose server-side layers are replayed
)

// serveFixture is the set-up of the serve workload: the artifact
// `metaopt train` builds by default, an in-process server on loopback and
// the seeded request stream over a held-out corpus.
type serveFixture struct {
	pred    *unroll.Predictor
	srv     *serve.Server
	url     string
	http    *http.Client
	sources []string // held-out LoopLang sources
	stream  [][]int  // request → source indices
}

func (f *serveFixture) close() {
	if f == nil || f.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := f.srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: serve shutdown: %v\n", err)
	}
	f.http.CloseIdleConnections()
	f.srv = nil
}

func newServeFixture(seed int64) (*serveFixture, error) {
	m := unroll.Itanium2()
	train, err := unroll.GenerateCorpus(1, 0.15)
	if err != nil {
		return nil, err
	}
	ds, err := unroll.CollectDataset(train, unroll.CollectOptions{Machine: m, Seed: 1, Runs: 10})
	if err != nil {
		return nil, err
	}
	feats, err := unroll.SelectFeatures(ds, 1)
	if err != nil {
		return nil, err
	}
	p, err := unroll.Train(ds, unroll.TrainOptions{Algorithm: unroll.Algorithm("svm"), Machine: m, Seed: 1, Features: feats})
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{Model: p})
	if err != nil {
		return nil, err
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &serveFixture{
		pred: p,
		srv:  srv,
		url:  "http://" + addr + "/v1/predict/batch",
		http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}},
	}
	held, err := loopgen.Generate(loopgen.Options{Seed: 2005, LoopsScale: 1, Replicate: 2})
	if err != nil {
		f.close()
		return nil, err
	}
	for _, b := range held.Benchmarks {
		f.sources = append(f.sources, b.Sources...)
	}
	f.stream = requestStream(seed, len(f.sources))
	return f, nil
}

// requestStream draws each slot of each request either afresh, walking the
// corpus from a seeded start, or — half the time — as a repeat of one of
// 1,024 recently drawn fresh loops, which the 4096-entry cache still holds.
// Fresh loops return only after a full pass over the ~6,400 sources, by
// which time the cache has evicted them.
func requestStream(seed int64, n int) [][]int {
	rng := rand.New(rand.NewSource(seed))
	next := rng.Intn(n)
	recent := make([]int, 0, recentReach)
	stream := make([][]int, streamLen)
	for r := range stream {
		ids := make([]int, batchLoops)
		for k := range ids {
			if len(recent) > 0 && rng.Intn(2) == 0 {
				ids[k] = recent[rng.Intn(len(recent))]
				continue
			}
			ids[k] = next
			next = (next + 1) % n
			if len(recent) < recentReach {
				recent = append(recent, ids[k])
			} else {
				recent[rng.Intn(recentReach)] = ids[k]
			}
		}
		stream[r] = ids
	}
	return stream
}

// reqResult is one batch request as the client saw it.
type reqResult struct {
	ids         []int
	done        time.Time // when the response was checked
	latency     time.Duration
	json        time.Duration // client encode + decode
	cached      []bool
	ok          bool
	collide     int // answers the cache took from a source sharing the key
	fingerprint string
	err         string
	span        int // root span id in a traced phase
}

// post sends one batch request and checks the answer: a 200, the golden
// model fingerprint, and every factor equal to its golden.
func (f *serveFixture) post(ids []int, want *serveGolden, tr *tracer, op int) (res reqResult) {
	root := tr.begin(op, -1, "harness.request", false)
	res = reqResult{ids: ids, span: root}
	start := time.Now()
	defer func() {
		res.done = time.Now()
		res.latency = res.done.Sub(start)
		tr.end(root)
	}()
	encID := tr.begin(op, root, "wire.encode", false)
	req := client.BatchRequest{Loops: make([]client.PredictRequest, len(ids))}
	for i, id := range ids {
		req.Loops[i].Source = f.sources[id]
	}
	body, err := json.Marshal(req)
	res.json = time.Since(start)
	tr.end(encID)
	if err != nil {
		res.err = err.Error()
		return res
	}
	httpID := tr.begin(op, root, "serve.roundtrip", false)
	resp, err := f.http.Post(f.url, "application/json", bytes.NewReader(body))
	if err != nil {
		tr.end(httpID)
		res.err = err.Error()
		return res
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	tr.end(httpID)
	if err != nil || resp.StatusCode != http.StatusOK {
		res.err = fmt.Sprintf("status %d: %v %s", resp.StatusCode, err, strings.TrimSpace(string(raw)))
		return res
	}
	decStart := time.Now()
	decID := tr.begin(op, root, "wire.decode", false)
	var out client.BatchResponse
	err = json.Unmarshal(raw, &out)
	tr.end(decID)
	res.json += time.Since(decStart)
	if err != nil {
		res.err = err.Error()
		return res
	}
	if len(out.Results) != len(ids) {
		res.err = fmt.Sprintf("%d results for %d loops", len(out.Results), len(ids))
		return res
	}
	res.fingerprint = out.Fingerprint
	if want != nil && out.Fingerprint != want.fingerprint {
		res.err = "model fingerprint " + out.Fingerprint + ", golden " + want.fingerprint
		return res
	}
	res.cached = make([]bool, len(ids))
	res.ok = true
	for i, br := range out.Results {
		res.cached[i] = br.Cached
		ok, collide := br.Error == "", false
		if ok && want != nil {
			ok, collide = want.verdict(ids[i], br.Factor, br.Cached)
		}
		if collide {
			res.collide++
		}
		if !ok {
			res.ok = false
			res.err = fmt.Sprintf("source %d: factor %d (cached %v), error %q", ids[i], br.Factor, br.Cached, br.Error)
		}
	}
	return res
}

// drive runs the closed-loop clients from the stream position *next until
// the deadline (or until n requests when n > 0).
func (f *serveFixture) drive(next *atomic.Int64, deadline time.Time, n int64, want *serveGolden, tr *tracer) []reqResult {
	var mu sync.Mutex
	var out []reqResult
	stop := next.Load() + n
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if (n > 0 && i >= stop) || (n <= 0 && !time.Now().Before(deadline)) {
					return
				}
				res := f.post(f.stream[i%int64(len(f.stream))], want, tr, int(i))
				mu.Lock()
				out = append(out, res)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}

// serveGolden is the model fingerprint, each held-out source's factor from
// the compiled predictor, and the groups of sources whose loops the
// service's cache cannot tell apart (see NOTES.md): a cached answer for a
// group member may be another member's factor.
type serveGolden struct {
	fingerprint string
	factors     []int
	group       map[int][]int // source → every source sharing its cache key
}

// verdict classifies one returned factor: a match, an answer the cache
// took from a source sharing the loop's key, or a failure.
func (g *serveGolden) verdict(id, factor int, cached bool) (ok, collision bool) {
	if factor == g.factors[id] {
		return true, false
	}
	if cached {
		for _, j := range g.group[id] {
			if g.factors[j] == factor {
				return true, true
			}
		}
	}
	return false, false
}

var serveGoldenPath = filepath.Join(goldenDir, "serve.txt")

func readServeGolden(path string) (*serveGolden, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("golden: %w", err)
	}
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	if len(lines) != 3 {
		return nil, fmt.Errorf("golden %s: want fingerprint, factor and key-group lines", path)
	}
	g := &serveGolden{fingerprint: lines[0], group: map[int][]int{}}
	for _, ch := range lines[1] {
		g.factors = append(g.factors, int(ch-'0'))
	}
	for _, grp := range strings.Fields(lines[2]) {
		var ids []int
		for _, f := range strings.Split(grp, ",") {
			id, err := strconv.Atoi(f)
			if err != nil || id < 0 || id >= len(g.factors) {
				return nil, fmt.Errorf("golden %s: bad key group %q", path, grp)
			}
			ids = append(ids, id)
		}
		for _, id := range ids {
			g.group[id] = ids
		}
	}
	return g, nil
}

// regenServeGolden predicts every held-out source with the compiled
// predictor the service runs on a cache miss, groups the sources whose
// loops print to the same IR (the service's cache key) with differing
// factors, and takes the fingerprint the service reports.
func (f *serveFixture) regenServeGolden(path string) (*serveGolden, error) {
	cp, err := unroll.Compile(f.pred)
	if err != nil {
		return nil, err
	}
	loops := make([]*unroll.Loop, len(f.sources))
	byKey := map[string][]int{}
	var keys []string
	for i, src := range f.sources {
		if loops[i], err = unroll.ParseKernel(src); err != nil {
			return nil, fmt.Errorf("regen: source %d: %w", i, err)
		}
		k := loops[i].String()
		if byKey[k] == nil {
			keys = append(keys, k)
		}
		byKey[k] = append(byKey[k], i)
	}
	factors, err := cp.PredictBatch(context.Background(), loops)
	if err != nil {
		return nil, err
	}
	probe := f.post([]int{0}, nil, nil, -1)
	if !probe.ok {
		return nil, fmt.Errorf("regen: fingerprint probe: %s", probe.err)
	}
	g := &serveGolden{fingerprint: probe.fingerprint, factors: factors, group: map[int][]int{}}
	var digits strings.Builder
	for _, u := range factors {
		digits.WriteByte(byte('0' + u))
	}
	var groups []string
	for _, k := range keys {
		ids := byKey[k]
		differ := false
		for _, j := range ids[1:] {
			differ = differ || factors[j] != factors[ids[0]]
		}
		if !differ {
			continue
		}
		parts := make([]string, len(ids))
		for i, id := range ids {
			parts[i] = strconv.Itoa(id)
			g.group[id] = ids
		}
		groups = append(groups, strings.Join(parts, ","))
	}
	body := g.fingerprint + "\n" + digits.String() + "\n" + strings.Join(groups, " ") + "\n"
	return g, os.WriteFile(path, []byte(body), 0o644)
}

// runServe measures batch prediction requests against the in-process
// server.
func runServe(o *options, r *report) error {
	var want *serveGolden
	if !o.regen {
		var err error
		if want, err = readServeGolden(serveGoldenPath); err != nil {
			return err
		}
	}
	var f *serveFixture
	defer func() { f.close() }()
	// Two set-ups, not three: each one labels, selects features and
	// trains, and the run's time budget is shared with the other workloads.
	setup, err := repeatSetup(2, func() error {
		f.close()
		var err error
		f, err = newServeFixture(o.seed)
		return err
	})
	if err != nil {
		return err
	}
	r.set("setup_s", setup, "s", 2, "median of 2 set-ups: label, select, train, compile, start, stream")
	if o.regen {
		if want, err = f.regenServeGolden(serveGoldenPath); err != nil {
			return err
		}
	}
	if len(want.factors) != len(f.sources) {
		return fmt.Errorf("golden holds %d factors for %d sources", len(want.factors), len(f.sources))
	}

	var next atomic.Int64
	f.drive(&next, time.Time{}, warmupReqs, want, nil)

	phase := o.seconds
	var tr *tracer
	if o.trace {
		// Half untraced, half traced: the gap is the tracing overhead.
		phase /= 2
		tr = newTracer()
	}
	// The service's footprint, not training's: return set-up garbage to
	// the OS before the serving phase's high-water mark starts.
	debug.FreeOSMemory()
	var peaks peakTracker
	peaks.start()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	w := openWindow()
	untraced := f.drive(&next, time.Now().Add(phase), 0, want, nil)
	r.Env = w.close()
	runtime.ReadMemStats(&m1)
	peaks.stop()
	var traced []reqResult
	if tr != nil {
		traced = f.drive(&next, time.Now().Add(phase), 0, want, tr)
	}

	lat := latencies(untraced)
	loops, collide := 0, 0
	for _, res := range untraced {
		r.check(res.ok)
		if !res.ok {
			r.info("request failed: %s", res.err)
		}
		loops += len(res.ids)
		collide += res.collide
	}
	r.set("serve.key_collisions_per_kloop", 1000*float64(collide)/float64(max(loops, 1)), "count", loops,
		"cached answers taken from another source with the same cache key, per 1000 loops")
	for _, res := range traced {
		r.check(res.ok)
	}
	n := len(lat)
	r.set("op_p50_ms", median(lat), "ms", n, "one 32-loop batch request, 2 closed-loop clients")
	slices := sliceRates(untraced, w.start, phase)
	r.set("throughput_per_s", median(slices), "1/s", len(slices), "loops answered per second, median over 1 s slices")
	for _, q := range []float64{0.9, 0.99} {
		if tailSupported(n, q) {
			r.info("latency p%g = %.4f ms (n=%d, %d beyond)", 100*q, quantile(lat, q), n, int(float64(n)*(1-q)))
		} else {
			r.info("latency p%g not reported: %d requests leave fewer than 10 beyond it", 100*q, n)
		}
	}
	setEndToEndCommon(r, &peaks)
	if tr == nil {
		return nil
	}

	reqs := float64(len(untraced))
	r.set("serve.alloc_kib_per_req", float64(m1.TotalAlloc-m0.TotalAlloc)/1024/reqs, "KiB", len(untraced),
		"heap allocated per request, client and server (one process)")
	r.set("serve.gc_per_kreq", float64(m1.NumGC-m0.NumGC)*1000/reqs, "count", len(untraced), "GC cycles per 1000 requests")
	hits, all := 0, 0
	for _, res := range untraced {
		for _, c := range res.cached {
			all++
			if c {
				hits++
			}
		}
	}
	r.set("serve.cache_hit_share", float64(hits)/float64(max(all, 1)), "1", all, "loops answered from the cache")
	r.set("trace.overhead_ms", median(latencies(traced))-median(lat), "ms", len(traced), "traced minus untraced median request")
	if err := f.replay(tr, r, traced); err != nil {
		return err
	}
	bs := replayedBreakdowns(tr)
	overhead := make([]float64, len(bs))
	for i, b := range bs {
		overhead[i] = us(b.Self["serve"]) / batchLoops
	}
	r.set("serve.overhead_us", median(overhead), "us", len(bs),
		"per loop: round trip minus the replayed parse, features and predictor")
	reportBreakdowns(r, bs, selfLayers)
	return o.writeSpans(tr, r)
}

// sliceRates counts the loops answered in each whole second of the window
// that starts at start, so a burst of host steal moves one slice instead of
// the run's rate.
func sliceRates(rs []reqResult, start time.Time, window time.Duration) []float64 {
	rates := make([]float64, max(int(window/time.Second), 1))
	for _, res := range rs {
		if k := int(res.done.Sub(start) / time.Second); k >= 0 && k < len(rates) {
			rates[k] += float64(len(res.ids))
		}
	}
	return rates
}

func latencies(rs []reqResult) []float64 {
	out := make([]float64, 0, len(rs))
	for _, res := range rs {
		out = append(out, ms(res.latency))
	}
	return out
}

// replay re-runs, on an idle server, the server-side layers of an evenly
// spaced sample of traced requests: parsing every source, and feature
// extraction and the compiled predictor for the loops that missed the
// cache. The replayed spans go under each request's round trip, whose
// remainder is the service's own time: HTTP, admission queue,
// micro-batching, cache key and encode.
func (f *serveFixture) replay(tr *tracer, r *report, traced []reqResult) error {
	cp, err := unroll.Compile(f.pred)
	if err != nil {
		return err
	}
	m := unroll.Itanium2()
	step := max(len(traced)/replayReqs, 1)
	var parse, feat, pred, wire []float64
	var parseN, missN, loopN int
	spans := tr.snapshot()
	for i := 0; i < len(traced); i += step {
		res := traced[i]
		if !res.ok {
			continue
		}
		rt := -1
		for _, s := range spans {
			if s.Parent == res.span && s.Name == "serve.roundtrip" {
				rt = s.ID
			}
		}
		var tParse, tFeat, tPred time.Duration
		var vecs [][]float64
		for k, id := range res.ids {
			start := time.Now()
			l, err := unroll.ParseKernel(f.sources[id])
			tParse += time.Since(start)
			if err != nil {
				return fmt.Errorf("replay parse: %w", err)
			}
			if res.cached[k] {
				continue
			}
			start = time.Now()
			vecs = append(vecs, unroll.Features(l, m))
			tFeat += time.Since(start)
		}
		if len(vecs) > 0 {
			start := time.Now()
			if _, err := cp.PredictFeaturesBatch(vecs, nil); err != nil {
				return fmt.Errorf("replay predict: %w", err)
			}
			tPred = time.Since(start)
		}
		if rt >= 0 {
			tr.replayed(rt, []string{"lang.parse", "features.extract", "unroll.predict_batch"},
				[]time.Duration{tParse, tFeat, tPred})
		}
		parseN += len(res.ids)
		missN += len(vecs)
		loopN += len(res.ids)
		parse = append(parse, us(tParse))
		feat = append(feat, us(tFeat))
		pred = append(pred, us(tPred))
		wire = append(wire, us(res.json))
	}
	if loopN == 0 {
		return fmt.Errorf("no traced request to replay")
	}
	r.set("lang.parse_us", sum(parse)/float64(parseN), "us", parseN, "per loop, unroll.ParseKernel replayed")
	r.set("features.extract_us", sum(feat)/float64(max(missN, 1)), "us", missN, "per missed loop, unroll.Features replayed")
	r.set("predict.batch_us", sum(pred)/float64(max(missN, 1)), "us", missN, "per missed loop, PredictFeaturesBatch replayed")
	r.set("wire.json_us", sum(wire)/float64(loopN), "us", loopN, "per loop, client encode and decode")
	return nil
}

// replayedBreakdowns splits the traced requests that carry replayed
// server-side spans.
func replayedBreakdowns(tr *tracer) []opBreakdown {
	spans := tr.snapshot()
	keep := map[int]bool{}
	for _, s := range spans {
		if s.Replayed {
			keep[s.Op] = true
		}
	}
	var sel []span
	remap := map[int]int{}
	for _, s := range spans {
		if keep[s.Op] {
			remap[s.ID] = len(sel)
			sel = append(sel, s)
		}
	}
	for i := range sel {
		sel[i].ID = i
		if p, ok := remap[sel[i].Parent]; ok {
			sel[i].Parent = p
		}
	}
	return breakdowns(sel, "harness.request")
}
