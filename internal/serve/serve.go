// Package serve is the online prediction service behind cmd/unrolld: an
// HTTP/JSON server that loads a versioned predictor artifact once and
// answers unroll-factor queries for sustained concurrent traffic.
//
// The data path is engineered for load rather than convenience:
//
//   - a bounded admission queue applies backpressure — when it is full the
//     server answers 503 with a Retry-After hint instead of queueing
//     unboundedly;
//   - per-request deadlines propagate through context.Context from the
//     HTTP handler into the predictor;
//   - queued requests are micro-batched through the compiled predictor's
//     float32 batch path, so a worker drains several waiting requests per
//     model dispatch;
//   - an LRU cache keyed by a hash of the model fingerprint and the
//     source's token stream short-circuits repeated queries before the
//     frontend runs: a hit is lexed and hashed, never parsed;
//   - POST /v1/admin/reload swaps the model atomically with zero dropped
//     requests — in-flight batches finish on the snapshot they started
//     with;
//   - Shutdown drains: new work is refused with 503, everything already
//     admitted completes, then the HTTP server closes.
//
// Every stage is wired into internal/obs: request/item counters, a latency
// histogram, a queue-depth gauge, cache hit/miss counters, and micro-batch
// spans, all visible on the -debugaddr endpoint alongside pprof.
package serve

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math"
	"net"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"metaopt/internal/faults"
	"metaopt/internal/lang"
	"metaopt/internal/obs"
	"metaopt/internal/registry"
	"metaopt/unroll"
	"metaopt/unroll/client"
)

// Config sizes the service.
type Config struct {
	Model     *unroll.Predictor // initial model (required)
	ModelPath string            // artifact path, for reloads with no explicit path

	QueueDepth     int           // admission queue capacity (default 256)
	Workers        int           // micro-batching workers (default GOMAXPROCS)
	MaxBatch       int           // max items per model dispatch (default 32)
	CacheSize      int           // LRU entries; 0 = default 4096, negative disables
	RequestTimeout time.Duration // per-request deadline (default 5s)

	// PanicThreshold flips readiness to 503 after this many consecutive
	// worker panics (default 8): a model that panics on every request —
	// e.g. a corrupt reload candidate — takes the instance out of rotation
	// instead of crash-flapping. Any successful prediction or reload
	// resets the streak.
	PanicThreshold int

	// SLO objectives tracked over a rolling window and reported on
	// /readyz and /metrics. Availability is the success-rate objective
	// (default 0.999); SLOLatencyP99 the p99 latency objective (default
	// 250ms); SLOWindow the rolling window (default 60s).
	SLOAvailability float64
	SLOLatencyP99   time.Duration
	SLOWindow       time.Duration

	// SlowTrace keeps only request traces at least this slow in the
	// /debug/traces ring; 0 keeps the most recent requests outright.
	SlowTrace time.Duration

	// MaxModels bounds the model registry's resident versions (default 8,
	// see registry.Config); RegistryState optionally persists registry
	// residency across restarts.
	MaxModels     int
	RegistryState string
}

func (c *Config) fill() error {
	if c.Model == nil {
		return errors.New("serve: Config.Model is required")
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.CacheSize == 0 {
		c.CacheSize = 4096
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 5 * time.Second
	}
	if c.PanicThreshold <= 0 {
		c.PanicThreshold = 8
	}
	if c.SLOAvailability <= 0 || c.SLOAvailability >= 1 {
		c.SLOAvailability = 0.999
	}
	if c.SLOLatencyP99 <= 0 {
		c.SLOLatencyP99 = 250 * time.Millisecond
	}
	if c.SLOWindow <= 0 {
		c.SLOWindow = 60 * time.Second
	}
	return nil
}

// Telemetry. Resolved once; the hot path is atomic adds.
var (
	mReqs       = obs.C("serve.requests")
	mBatchReqs  = obs.C("serve.requests.batch")
	mItems      = obs.C("serve.predict.items")
	mErrors     = obs.C("serve.errors")
	mRejects    = obs.C("serve.queue.rejects")
	mDeadlines  = obs.C("serve.deadline_exceeded")
	mCacheHits  = obs.C("serve.cache.hits")
	mCacheMiss  = obs.C("serve.cache.misses")
	mReloads    = obs.C("serve.model.reloads")
	mPanics     = obs.C("serve.worker_panics")
	mNonFinite  = obs.C("serve.nonfinite_features")
	mQueueDepth = obs.G("serve.queue.depth")
	mUnready    = obs.G("serve.unready_panic_streak")
	hLatencyUS  = obs.H("serve.latency_us", obs.ExpBounds(50, 2, 16))
	hBatchItems = obs.H("serve.batch.items", obs.ExpBounds(1, 2, 8))
	hQueueWait  = obs.H("serve.queue_wait_us", obs.ExpBounds(10, 2, 16))

	mShadowMirrored = obs.C("serve.shadow.mirrored")
	mShadowAgree    = obs.C("serve.shadow.agree")
	mShadowDisagree = obs.C("serve.shadow.disagree")
	mShadowErrors   = obs.C("serve.shadow.errors")
	mShadowDropped  = obs.C("serve.shadow.dropped")
	mShadowActive   = obs.G("serve.shadow.active")
)

// Request IDs tie a 500 answer to the server-side log line carrying the
// recovered panic's stack. The prefix pins the process, the counter the
// request.
var (
	reqIDPrefix = fmt.Sprintf("%08x", time.Now().UnixNano()&0xffffffff)
	reqIDSeq    atomic.Int64
)

func nextRequestID() string {
	return fmt.Sprintf("%s-%06d", reqIDPrefix, reqIDSeq.Add(1))
}

// requestID returns the caller's X-Request-Id (or X-Trace-Id) when it is
// safe to propagate, else a fresh server-side ID. Honoring the caller's ID
// lets a build farm correlate its own logs with the server's trace ring
// and panic log lines across retries.
func requestID(r *http.Request) string {
	id := r.Header.Get("X-Request-Id")
	if id == "" {
		id = r.Header.Get("X-Trace-Id")
	}
	if validRequestID(id) {
		return id
	}
	return nextRequestID()
}

// validRequestID bounds a caller-supplied ID: 1..64 bytes of
// [A-Za-z0-9._-], so log lines and trace exports can embed it verbatim.
func validRequestID(s string) bool {
	if len(s) == 0 || len(s) > 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// modelInfo renders one registry version in the common admin envelope.
func modelInfo(m *registry.Model) client.ModelInfo {
	return client.ModelInfo{
		Algorithm:    string(m.Pred.Algorithm()),
		ModelVersion: m.Pred.Version(),
		Fingerprint:  m.Fingerprint(),
		Path:         m.Path,
		Compiled:     m.Comp.Fingerprint(),
		LoadedAt:     m.LoadedAt,
	}
}

// snapInfo is modelInfo plus the version's registry placement.
func snapInfo(snap registry.Snapshot) client.ModelInfo {
	mi := modelInfo(snap.Model)
	mi.Default = snap.Default
	mi.Pinned = snap.Pinned
	mi.Aliases = snap.Aliases
	return mi
}

// item is one request entry: a loop or feature vector awaiting
// prediction, an answer the cache already gave, or an entry refused
// before admission.
type item struct {
	loop  *unroll.Loop
	feats []float64
	name  string   // the loop's name for the response; "" for a vector
	key   [32]byte // cache key; unset while the cache is disabled
	reqID string   // request ID, for panic-isolation log lines

	factor int
	cached bool // answered from the cache; nothing to predict
	err    error
	status int // HTTP status of a refused entry; 0 once admitted
}

// job is one admitted request: a slot in the admission queue carrying one
// item (single predict) or many (batch endpoint). The worker fills the
// items and the model snapshot, then closes done.
type job struct {
	ctx      context.Context
	items    []*item
	st       *registry.Model
	trace    *obs.RequestTrace // nil-safe; shared with the waiting handler
	enqueued time.Time
	done     chan struct{}
	once     sync.Once
}

// finish releases the waiting handler. Idempotent, so the panic-recovery
// sweep can finish a batch some of whose jobs already completed. Closing
// done happens-after the predict-stage mark, so the handler reads a
// finished trace.
func (j *job) finish() {
	j.once.Do(func() {
		j.trace.EndStage(obs.StagePredict)
		close(j.done)
	})
}

// pickup marks a job's transition from the admission queue into a worker:
// the queue-wait span ends (feeding serve.queue_wait_us) and batch
// assembly begins.
func (j *job) pickup() {
	if !j.enqueued.IsZero() {
		hQueueWait.Observe(time.Since(j.enqueued).Microseconds())
	}
	j.trace.EndStage(obs.StageQueueWait)
	j.trace.BeginStage(obs.StageBatchAssembly)
}

// Server is the prediction service. Create with New, expose with Start or
// Handler, stop with Shutdown.
type Server struct {
	cfg   Config
	reg   *registry.Registry
	cache *lru

	qmu      sync.RWMutex // guards queue against close-during-enqueue
	queue    chan *job
	draining atomic.Bool
	workers  sync.WaitGroup

	// panicStreak counts consecutive worker panics; any successful
	// prediction or a reload resets it. At cfg.PanicThreshold the server
	// reports itself unready.
	panicStreak atomic.Int64

	// slo tracks availability and p99 latency over a rolling window;
	// every request outcome feeds it with two atomic adds.
	slo *obs.SLO

	// completed counts drained jobs; drain samples it into a recent
	// jobs-per-second rate that Retry-After hints derive from.
	completed atomic.Int64
	drain     drainRate

	// shadow mirrors a fraction of live predict traffic to a candidate
	// model off the critical path; nil when no shadow is loaded.
	shadow     atomic.Pointer[shadowState]
	shadowq    chan shadowTask
	shadowWG   sync.WaitGroup
	shadowOnce sync.Once

	// tenants holds bounded per-tenant accounting for v2 traffic: a
	// request counter and an SLO slice per label, overflowing into
	// "other" past maxTenants so a label-spraying client cannot mint
	// unbounded metric names.
	tmu     sync.Mutex
	tenants map[string]*tenantStats

	// modelReqs caches per-model request counters keyed by fingerprint.
	modelReqs sync.Map // fingerprint → *obs.Counter

	reloadMu sync.Mutex
	httpSrv  *http.Server

	// preBatch, when non-nil, runs before every micro-batch dispatch.
	// Tests use it to hold the workers and saturate the queue.
	preBatch func()
}

// New builds a server and starts its worker pool.
func New(cfg Config) (*Server, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		cache:   newLRU(cfg.CacheSize),
		queue:   make(chan *job, cfg.QueueDepth),
		shadowq: make(chan shadowTask, 256),
		tenants: make(map[string]*tenantStats),
	}
	s.slo = obs.NewSLO(obs.SLOConfig{
		Name:         "serve.slo",
		Window:       cfg.SLOWindow,
		Availability: cfg.SLOAvailability,
		LatencyP99US: cfg.SLOLatencyP99.Microseconds(),
	})
	obs.DefaultRequests.SetSlowThreshold(cfg.SlowTrace)
	s.reg = registry.New(registry.Config{MaxModels: cfg.MaxModels, StatePath: cfg.RegistryState})
	if n, err := s.reg.Restore(); err != nil {
		log.Printf("serve: registry restore: %v; continuing with the boot model only", err)
	} else if n > 0 {
		log.Printf("serve: registry restored %d model version(s) from %s", n, cfg.RegistryState)
	}
	boot, err := s.reg.Insert(cfg.Model, cfg.ModelPath, "", false)
	if err != nil {
		return nil, err
	}
	// The boot artifact serves, whatever a restored manifest recorded.
	if _, err := s.reg.Promote(boot.Fingerprint()); err != nil {
		return nil, err
	}
	s.workers.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	s.shadowWG.Add(1)
	go s.shadowWorker()
	return s, nil
}

// Start listens on addr (":0" picks a free port), serves in the
// background, and returns the bound address.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("serve: listen: %w", err)
	}
	s.httpSrv = &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go s.httpSrv.Serve(ln)
	return ln.Addr().String(), nil
}

// Handler returns the service's HTTP mux, for embedding and tests.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/predict", s.handlePredict)
	mux.HandleFunc("POST /v1/predict/batch", s.handleBatch)
	mux.HandleFunc("POST /v2/predict", s.handlePredictV2)
	mux.HandleFunc("POST /v2/predict/batch", s.handleBatchV2)
	mux.HandleFunc("POST /v1/admin/reload", s.handleReload)
	mux.HandleFunc("GET /v1/admin/models", s.handleModels)
	mux.HandleFunc("POST /v1/admin/models/load", s.handleModelLoad)
	mux.HandleFunc("POST /v1/admin/models/promote", s.handleModelPromote)
	mux.HandleFunc("POST /v1/admin/models/evict", s.handleModelEvict)
	mux.HandleFunc("POST /v1/admin/shadow", s.handleShadow)
	mux.HandleFunc("GET /v1/shadow/report", s.handleShadowReport)
	mux.HandleFunc("GET /v1/model", s.handleModel)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/traces", obs.HandleRequestTraces)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	return mux
}

// handleMetrics publishes the SLO gauges, then renders every registry
// metric in the Prometheus text format — the scrape target a fleet
// monitor points at.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.slo.Publish()
	obs.HandleMetrics(w, r)
}

// Shutdown drains the service: new requests are refused with 503, every
// admitted request completes, then the HTTP server (if Start was used)
// closes. It returns nil only after a complete drain.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.draining.CompareAndSwap(false, true) {
		// No enqueuer can be mid-send: enqueue holds qmu.RLock and
		// rechecks draining; taking the write lock fences them out.
		s.qmu.Lock()
		close(s.queue)
		s.qmu.Unlock()
	}
	drained := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		// Workers are the only shadow enqueuers, so once they exit the
		// shadow queue can close and its worker drain what was mirrored.
		s.shadowOnce.Do(func() { close(s.shadowq) })
		s.shadowWG.Wait()
	case <-ctx.Done():
		return fmt.Errorf("serve: drain: %w", ctx.Err())
	}
	if s.httpSrv != nil {
		return s.httpSrv.Shutdown(ctx)
	}
	return nil
}

// Reload loads the artifact at path (or the startup path when empty) into
// the registry and atomically promotes it. In-flight batches finish on the
// version they resolved; no request is dropped, and the displaced default
// stays resident for rollback until the LRU bound claims it.
func (s *Server) Reload(path string) (previous, current *registry.Model, err error) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	old := s.reg.Default()
	if path == "" {
		path = old.Path
	}
	if path == "" {
		return nil, nil, errors.New("serve: no artifact path: server was started from an in-memory model and the reload request named no path")
	}
	m, err := s.reg.Load(path, "", false)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: reload: %w", err)
	}
	if _, err := s.reg.Promote(m.Fingerprint()); err != nil {
		return nil, nil, fmt.Errorf("serve: reload promote: %w", err)
	}
	mReloads.Inc()
	s.modelPromoted()
	return old, m, nil
}

// modelPromoted runs after every default swap: a fresh model gets a fresh
// chance — the panic streak belongs to the model that earned it, so
// promotion clears the unready latch.
func (s *Server) modelPromoted() {
	s.panicStreak.Store(0)
	mUnready.Set(0)
}

// Registry exposes the server's model registry (CLI wiring and tests).
func (s *Server) Registry() *registry.Registry { return s.reg }

// enqueue admits a job, or reports failure when the queue is full or the
// server is draining.
func (s *Server) enqueue(j *job) bool {
	s.qmu.RLock()
	defer s.qmu.RUnlock()
	if s.draining.Load() {
		return false
	}
	select {
	case s.queue <- j:
		mQueueDepth.Set(int64(len(s.queue)))
		return true
	default:
		return false
	}
}

// modelGroup collects one model version's share of a merged dispatch: the
// jobs that resolved to that version and their loops awaiting prediction.
// A gather that spans versions (v2 pins mid-stream, a promotion between
// admissions) dispatches once per version instead of forcing the whole
// batch onto one snapshot.
type modelGroup struct {
	st    *registry.Model
	jobs  []*job
	loops []*item
}

// worker drains the admission queue, gathering up to MaxBatch items per
// dispatch. A panic anywhere in a dispatch is contained by guard, so the
// worker — and with it the pool — never dies.
func (s *Server) worker() {
	defer s.workers.Done()
	for j := range s.queue {
		j.pickup()
		jobs := []*job{j}
		n := len(j.items)
		for n < s.cfg.MaxBatch {
			var extra *job
			select {
			case extra = <-s.queue:
			default:
			}
			if extra == nil {
				break
			}
			extra.pickup()
			jobs = append(jobs, extra)
			n += len(extra.items)
		}
		for _, jb := range jobs {
			jb.trace.EndStage(obs.StageBatchAssembly)
			jb.trace.BeginStage(obs.StagePredict)
		}
		mQueueDepth.Set(int64(len(s.queue)))
		// Last resort: if the dispatch machinery itself panics (not just
		// one prediction), every unfinished item fails with the panic
		// error and every waiting handler is released.
		if pe := s.guard(batchReqID(jobs), func() error { s.runBatch(jobs); return nil }); pe != nil {
			for _, jb := range jobs {
				for _, it := range jb.items {
					if it.err == nil && it.factor == 0 {
						it.err = pe
					}
				}
				jb.finish()
			}
		}
		s.completed.Add(int64(len(jobs)))
	}
}

// recordPanic converts a recovered panic into the error a request reports:
// the worker_panics counter moves, the consecutive-panic streak grows (at
// cfg.PanicThreshold readiness flips), and the full stack goes to the
// server log keyed by the items' request IDs — the HTTP answer carries only
// the ID.
func (s *Server) recordPanic(reqID string, r any) *faults.PanicError {
	pe := faults.NewPanicError(r)
	mPanics.Inc()
	mUnready.Set(s.panicStreak.Add(1))
	if reqID == "" {
		reqID = "unknown"
	}
	log.Printf("serve: worker panic (request %s, streak %d/%d): %v\n%s",
		reqID, s.panicStreak.Load(), s.cfg.PanicThreshold, pe.Value, pe.Stack)
	return pe
}

// recordSuccess resets the consecutive-panic streak.
func (s *Server) recordSuccess() {
	if s.panicStreak.Load() != 0 {
		s.panicStreak.Store(0)
		mUnready.Set(0)
	}
}

// guard is the worker's one panic barrier: it runs f and turns a panic in
// it into the *faults.PanicError recordPanic logs under reqID, so a panic
// fails only what f was computing.
func (s *Server) guard(reqID string, f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = s.recordPanic(reqID, r)
		}
	}()
	return f()
}

// batchReqID names a merged dispatch in a panic log line: the first
// member request's ID (the whole gather shares one log line).
func batchReqID(jobs []*job) string {
	for _, j := range jobs {
		for _, it := range j.items {
			if it.reqID != "" {
				return it.reqID
			}
		}
	}
	return ""
}

// batchContext builds the context a merged micro-batch computes under: the
// latest deadline across the member requests, so the batch call is bounded
// but no member is cut short by a neighbor's tighter deadline. (Members
// whose own deadline passes are answered 504 by their handler regardless.)
func batchContext(jobs []*job) (context.Context, context.CancelFunc) {
	var latest time.Time
	for _, j := range jobs {
		d, ok := j.ctx.Deadline()
		if !ok {
			return context.Background(), func() {}
		}
		if d.After(latest) {
			latest = d
		}
	}
	return context.WithDeadline(context.Background(), latest)
}

// runBatch predicts every live item across the gathered jobs: feature
// vectors one by one on the trained predictor, loops in one compiled
// dispatch per model version. Each job computes on the version it
// resolved at admission — a promotion mid-flight never reroutes admitted
// work.
func (s *Server) runBatch(jobs []*job) {
	if s.preBatch != nil {
		s.preBatch()
	}
	var groups []modelGroup
	for _, j := range jobs {
		if err := j.ctx.Err(); err != nil {
			for _, it := range j.items {
				it.err = err
			}
			j.finish()
			continue
		}
		gi := slices.IndexFunc(groups, func(g modelGroup) bool { return g.st == j.st })
		if gi < 0 {
			gi = len(groups)
			groups = append(groups, modelGroup{st: j.st})
		}
		g := &groups[gi]
		g.jobs = append(g.jobs, j)
		for _, it := range j.items {
			if it.feats != nil {
				s.predictItem(j.ctx, j.st, it)
			} else {
				g.loops = append(g.loops, it)
			}
		}
	}
	for gi := range groups {
		g := &groups[gi]
		if len(g.loops) > 0 {
			s.predictLoops(g)
		}
		for _, j := range g.jobs {
			for _, it := range j.items {
				if it.err == nil {
					mItems.Inc()
					s.recordSuccess()
					s.cache.put(it.key, it.factor, it.name)
					s.maybeShadow(j.st, it)
				}
			}
			j.finish()
		}
	}
}

// predictLoops answers one version's loops with a single dispatch through
// the compiled float32 batch path. If that dispatch fails or panics, each
// loop is predicted alone on the trained predictor, behind its own panic
// barrier, so one bad loop cannot poison its neighbors.
func (s *Server) predictLoops(g *modelGroup) {
	hBatchItems.Observe(int64(len(g.loops)))
	ctx, cancel := batchContext(g.jobs)
	defer cancel()
	loops := make([]*unroll.Loop, len(g.loops))
	for i, it := range g.loops {
		loops[i] = it.loop
	}
	factors := make([]int, len(loops))
	err := s.guard(batchReqID(g.jobs), func() error {
		if err := faults.Check("serve.batch"); err != nil {
			return err
		}
		return g.st.Comp.PredictBatchInto(ctx, loops, factors)
	})
	for i, it := range g.loops {
		if err == nil {
			it.factor = factors[i]
		} else {
			s.predictItem(ctx, g.st, it)
		}
	}
}

// predictItem answers one item on the trained predictor behind the panic
// barrier: a feature vector directly, a loop through PredictCtx.
func (s *Server) predictItem(ctx context.Context, st *registry.Model, it *item) {
	it.err = s.guard(it.reqID, func() (err error) {
		if err := faults.Check("serve.predict"); err != nil {
			return err
		}
		if it.feats != nil {
			it.factor, err = st.Pred.PredictFeatures(it.feats)
		} else {
			it.factor, err = st.Pred.PredictCtx(ctx, it.loop)
		}
		return err
	})
}

// keyBytesPool recycles the scratch cache keys are hashed from: the bytes
// live only for the sha256, so a per-call buffer was pure allocator churn
// on both request paths.
var keyBytesPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 1024)
		return &b
	},
}

// cacheKey canonicalizes a query for the LRU: the sha256 of the model
// fingerprint, the kind and the payload fill appends, NUL-separated. The
// payload is either a source's token stream (lang.Tokens.AppendKey: equal
// streams lower to equal loops, and whitespace and comments do not split
// cache lines) or the raw feature vector.
func cacheKey(fingerprint, kind string, fill func([]byte) []byte) [32]byte {
	bp := keyBytesPool.Get().(*[]byte)
	b := append((*bp)[:0], fingerprint...)
	b = append(b, 0)
	b = append(b, kind...)
	b = append(b, 0)
	b = fill(b)
	sum := sha256.Sum256(b)
	*bp = b
	keyBytesPool.Put(bp)
	return sum
}

// featureKey hashes a feature vector into its cache key.
func featureKey(fingerprint string, v []float64) [32]byte {
	return cacheKey(fingerprint, "feat", func(b []byte) []byte {
		for _, f := range v {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
		}
		return b
	})
}

// newItem validates one request entry and answers it from the cache when
// it can; an item with cached set needs no prediction. A source is lexed
// once and keyed by its tokens, so a hit is never parsed: only a miss
// parses those tokens and lowers them. With the cache disabled no key is
// built. The returned status is the HTTP code to answer when err != nil.
func (s *Server) newItem(st *registry.Model, req client.PredictRequest) (it *item, status int, err error) {
	switch {
	case req.Source == "" && req.Features == nil:
		return nil, http.StatusBadRequest, errors.New("one of source or features is required")
	case req.Source != "" && req.Features != nil:
		return nil, http.StatusBadRequest, errors.New("source and features are mutually exclusive")
	case req.Features != nil:
		for i, v := range req.Features {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				mNonFinite.Inc()
				return nil, http.StatusBadRequest,
					fmt.Errorf("feature %d is not finite (%v); NaN and ±Inf are rejected before they reach distance computations", i, v)
			}
		}
		it = &item{feats: req.Features}
		if s.cache.enabled() {
			it.key = featureKey(st.Fingerprint(), req.Features)
			if s.lookup(it) {
				return it, 0, nil
			}
		}
		mCacheMiss.Inc()
		return it, 0, nil
	}
	toks, err := lang.Lex(req.Source)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	it = &item{}
	if s.cache.enabled() {
		it.key = cacheKey(st.Fingerprint(), "loop", toks.AppendKey)
		if s.lookup(it) {
			toks.Release()
			return it, 0, nil
		}
	}
	k, err := toks.Kernel()
	toks.Release()
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	loop, err := lang.Lower(k)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	mCacheMiss.Inc()
	it.loop, it.name = loop, loop.Name
	return it, 0, nil
}

// lookup answers it from the cache on a hit.
func (s *Server) lookup(it *item) bool {
	factor, name, ok := s.cache.get(it.key)
	if ok {
		mCacheHits.Inc()
		it.factor, it.name, it.cached = factor, name, true
	}
	return ok
}

// tenantStats is one tenant label's accounting: request/error counters and
// an SLO slice carved from the same objectives as the whole-service SLO.
type tenantStats struct {
	reqs *obs.Counter
	errs *obs.Counter
	slo  *obs.SLO
}

// maxTenants bounds distinct tenant labels; excess traffic accounts under
// "other" so a label-spraying client cannot mint unbounded metric names.
const maxTenants = 64

// tenant resolves (or creates) the stats slot for a v2 tenant label. Empty
// labels carry no per-tenant accounting; labels that fail the request-ID
// charset rule or overflow the bound land in "other".
func (s *Server) tenant(name string) *tenantStats {
	if name == "" {
		return nil
	}
	if !validRequestID(name) {
		name = "other"
	}
	s.tmu.Lock()
	defer s.tmu.Unlock()
	t, ok := s.tenants[name]
	if !ok && len(s.tenants) >= maxTenants {
		name = "other"
		t, ok = s.tenants[name]
	}
	if !ok {
		t = &tenantStats{
			reqs: obs.C("serve.tenant." + name + ".requests"),
			errs: obs.C("serve.tenant." + name + ".errors"),
			slo: obs.NewSLO(obs.SLOConfig{
				Name:         "serve.tenant." + name + ".slo",
				Window:       s.cfg.SLOWindow,
				Availability: s.cfg.SLOAvailability,
				LatencyP99US: s.cfg.SLOLatencyP99.Microseconds(),
			}),
		}
		s.tenants[name] = t
	}
	return t
}

// modelCounter resolves the per-model request counter for a version,
// keyed by a 12-character fingerprint prefix. Cardinality is bounded by
// registry residency, so the names stay scrapeable.
func (s *Server) modelCounter(st *registry.Model) *obs.Counter {
	fp := st.Fingerprint()
	if c, ok := s.modelReqs.Load(fp); ok {
		return c.(*obs.Counter)
	}
	short := fp
	if len(short) > 12 {
		short = short[:12]
	}
	c := obs.C("serve.model." + short + ".requests")
	s.modelReqs.Store(fp, c)
	return c
}

// resolveModel maps a v2 model reference (or "" for the default) to the
// serving version, answering the request itself on failure.
func (s *Server) resolveModel(w http.ResponseWriter, ref string) (*registry.Model, bool) {
	st, err := s.reg.Resolve(ref)
	if err != nil {
		writeError(w, registryStatus(err), err.Error())
		return nil, false
	}
	return st, true
}

// registryStatus maps registry errors onto the admin API's statuses:
// unknown references are 404, refusing to evict the default is 409, and
// everything else (ambiguous prefixes, bad artifacts) is a 400.
func registryStatus(err error) int {
	switch {
	case errors.Is(err, registry.ErrNotFound), errors.Is(err, registry.ErrNoDefault):
		return http.StatusNotFound
	case errors.Is(err, registry.ErrDefault):
		return http.StatusConflict
	default:
		return http.StatusBadRequest
	}
}

// The four predict routes share one request path. v1 zeroes the v2
// routing fields after the shared decode, so its wire behavior — default
// model, no tenant accounting, byte-identical response encoding — is
// untouched.
func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	s.predict(w, r, false, false)
}

func (s *Server) handlePredictV2(w http.ResponseWriter, r *http.Request) {
	s.predict(w, r, true, false)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.predict(w, r, false, true)
}

func (s *Server) handleBatchV2(w http.ResponseWriter, r *http.Request) {
	s.predict(w, r, true, true)
}

// predict serves one predict request. A single predict is a batch of one
// whose item's outcome is the HTTP answer; a batch answers per loop,
// index-aligned with the request. Items the cache answers never reach the
// admission queue; the rest travel as one job, so admission is atomic per
// request.
func (s *Server) predict(w http.ResponseWriter, r *http.Request, v2, batch bool) {
	start := time.Now()
	mReqs.Inc()
	if batch {
		mBatchReqs.Inc()
	}
	reqID := requestID(r)
	w.Header().Set("X-Request-Id", reqID)
	tr := obs.AcquireRequestTrace(reqID)
	srvOK := true      // no 5xx answered: counts toward availability
	abandoned := false // worker may still be marking the trace
	var ten *tenantStats
	defer func() {
		total := time.Since(start)
		hLatencyUS.Observe(total.Microseconds())
		s.slo.Record(total.Microseconds(), srvOK)
		if ten != nil {
			ten.slo.Record(total.Microseconds(), srvOK)
			if !srvOK {
				ten.errs.Inc()
			}
		}
		if abandoned {
			// A deadline-abandoned request leaves its trace to the garbage
			// collector: the worker may still write stage marks into it.
			return
		}
		obs.DefaultRequests.Add(tr, total)
		obs.ReleaseRequestTrace(tr)
	}()

	loops, model, tenant, ok := decodePredict(w, r, batch)
	if !ok {
		return
	}
	if !v2 {
		model, tenant = "", ""
	}
	st, ok := s.resolveModel(w, model)
	if !ok {
		return
	}
	s.modelCounter(st).Inc()
	if ten = s.tenant(tenant); ten != nil {
		ten.reqs.Inc()
	}
	items := make([]*item, len(loops))
	pending := make([]*item, 0, len(loops))
	tr.BeginStage(obs.StageCacheLookup)
	for i, lr := range loops {
		it, status, err := s.newItem(st, lr)
		if err != nil {
			it = &item{err: err, status: status}
		} else if !it.cached {
			it.reqID = reqID
			pending = append(pending, it)
		}
		items[i] = it
	}
	tr.EndStage(obs.StageCacheLookup)
	if len(pending) > 0 {
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		j := &job{ctx: ctx, items: pending, st: st, trace: tr, enqueued: time.Now(), done: make(chan struct{})}
		// Queue wait opens before the enqueue so the worker (which ends it)
		// can never race the begin mark; if admission fails the span simply
		// never closes and is omitted from the record.
		tr.BeginStage(obs.StageQueueWait)
		tr.BeginStage(obs.StageAdmission)
		admitted := s.enqueue(j)
		tr.EndStage(obs.StageAdmission)
		if !admitted {
			srvOK = false
			s.rejectOverloaded(w)
			return
		}
		select {
		case <-j.done:
		case <-ctx.Done():
			mDeadlines.Inc()
			srvOK, abandoned = false, true
			what := "prediction"
			if batch {
				what = "batch"
			}
			writeError(w, http.StatusGatewayTimeout, "deadline exceeded before the "+what+" completed")
			return
		}
	}
	var resp any
	if batch {
		resp = batchResponse(st, items, reqID)
	} else {
		it := items[0]
		if it.err != nil {
			code := it.status
			if code == 0 {
				code = statusFor(it.err)
			}
			srvOK = code < 500
			writeError(w, code, publicError(it.err, reqID))
			return
		}
		resp = predictResponse(st, it)
	}
	tr.BeginStage(obs.StageEncode)
	writeJSON(w, http.StatusOK, resp)
	tr.EndStage(obs.StageEncode)
}

// decodePredict reads a predict body: one loop, or a batch of 1 to 1024.
// It answers the request itself when the body is refused.
func decodePredict(w http.ResponseWriter, r *http.Request, batch bool) (loops []client.PredictRequest, model, tenant string, ok bool) {
	if !batch {
		var req client.PredictV2Request
		if !decodeBody(w, r, &req) {
			return nil, "", "", false
		}
		return []client.PredictRequest{req.PredictRequest}, req.Model, req.Tenant, true
	}
	var req client.BatchV2Request
	if !decodeBody(w, r, &req) {
		return nil, "", "", false
	}
	switch {
	case len(req.Loops) == 0:
		writeError(w, http.StatusBadRequest, "batch request has no loops")
		return nil, "", "", false
	case len(req.Loops) > 1024:
		writeError(w, http.StatusBadRequest, fmt.Sprintf("batch of %d loops exceeds the 1024-loop limit", len(req.Loops)))
		return nil, "", "", false
	}
	return req.Loops, req.Model, req.Tenant, true
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	var req client.ReloadRequest
	if !decodeBody(w, r, &req) {
		return
	}
	old, cur, err := s.Reload(req.Path)
	if err != nil {
		mErrors.Inc()
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	resp := client.ReloadResponse{
		ModelInfo: modelInfo(cur),
		Previous:  old.Fingerprint(),
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleModel reports the default (serving) model. The response carries
// the full registry snapshot fields — default flag, pin, aliases — in
// the same ModelInfo envelope the /v1/admin/models endpoints use.
func (s *Server) handleModel(w http.ResponseWriter, _ *http.Request) {
	def := s.reg.Default()
	for _, snap := range s.reg.List() {
		if snap.Default {
			writeJSON(w, http.StatusOK, snapInfo(snap))
			return
		}
	}
	writeJSON(w, http.StatusOK, modelInfo(def))
}

// handleModels lists every resident model version.
func (s *Server) handleModels(w http.ResponseWriter, _ *http.Request) {
	resp := client.ModelsResponse{}
	if def := s.reg.Default(); def != nil {
		resp.Default = def.Fingerprint()
	}
	for _, snap := range s.reg.List() {
		resp.Models = append(resp.Models, snapInfo(snap))
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleModelLoad loads an artifact into the registry without promoting
// it: the new version serves only requests that pin it by fingerprint or
// alias until POST /v1/admin/models/promote makes it the default.
func (s *Server) handleModelLoad(w http.ResponseWriter, r *http.Request) {
	var req client.ModelLoadRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Path == "" {
		writeError(w, http.StatusBadRequest, "model load request names no artifact path")
		return
	}
	m, err := s.reg.Load(req.Path, req.Alias, req.Pin)
	if err != nil {
		mErrors.Inc()
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.writeModelInfo(w, m)
}

func (s *Server) handleModelPromote(w http.ResponseWriter, r *http.Request) {
	var req client.ModelRefRequest
	if !decodeBody(w, r, &req) {
		return
	}
	m, err := s.reg.Promote(req.Model)
	if err != nil {
		writeError(w, registryStatus(err), err.Error())
		return
	}
	s.modelPromoted()
	s.writeModelInfo(w, m)
}

func (s *Server) handleModelEvict(w http.ResponseWriter, r *http.Request) {
	var req client.ModelRefRequest
	if !decodeBody(w, r, &req) {
		return
	}
	m, err := s.reg.Evict(req.Model)
	if err != nil {
		writeError(w, registryStatus(err), err.Error())
		return
	}
	writeJSON(w, http.StatusOK, modelInfo(m))
}

// writeModelInfo answers with the registry snapshot for m when it is
// still resident, falling back to the bare model info.
func (s *Server) writeModelInfo(w http.ResponseWriter, m *registry.Model) {
	for _, snap := range s.reg.List() {
		if snap.Model.Fingerprint() == m.Fingerprint() {
			writeJSON(w, http.StatusOK, snapInfo(snap))
			return
		}
	}
	writeJSON(w, http.StatusOK, modelInfo(m))
}

// readyzDetail is the 200 body of GET /readyz: readiness plus the
// rolling-window SLO reading, so a fleet dashboard gets burn-rate context
// from the same probe the load balancer uses. SLO violations do not flip
// readiness — burning error budget is an alert, not a reason to shed the
// instance.
type readyzDetail struct {
	Status string        `json:"status"`
	SLO    obs.SLOStatus `json:"slo"`
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	if n := s.panicStreak.Load(); n >= int64(s.cfg.PanicThreshold) {
		writeError(w, http.StatusServiceUnavailable,
			fmt.Sprintf("unready: %d consecutive worker panics (threshold %d); reload a healthy model to restore readiness", n, s.cfg.PanicThreshold))
		return
	}
	writeJSON(w, http.StatusOK, readyzDetail{Status: "ok", SLO: s.slo.Status()})
}

func predictResponse(st *registry.Model, it *item) client.PredictResponse {
	return client.PredictResponse{
		Factor:       it.factor,
		Cached:       it.cached,
		ModelVersion: st.Pred.Version(),
		Fingerprint:  st.Fingerprint(),
		Loop:         it.name,
	}
}

func batchResponse(st *registry.Model, items []*item, reqID string) client.BatchResponse {
	results := make([]client.BatchResult, len(items))
	for i, it := range items {
		if it.err != nil {
			results[i] = client.BatchResult{Error: publicError(it.err, reqID), Loop: it.name}
		} else {
			results[i] = client.BatchResult{Factor: it.factor, Cached: it.cached, Loop: it.name}
		}
	}
	return client.BatchResponse{Results: results, ModelVersion: st.Pred.Version(), Fingerprint: st.Fingerprint()}
}

// publicError renders a prediction error for the wire. A contained panic
// answers with the request ID instead of the panic value and stack — those
// stay in the server log, keyed by the same ID.
func publicError(err error, reqID string) string {
	var pe *faults.PanicError
	if errors.As(err, &pe) {
		return fmt.Sprintf("internal error: prediction worker panicked (request %s; stack in server log)", reqID)
	}
	return err.Error()
}

// statusFor maps a prediction error to an HTTP status.
func statusFor(err error) int {
	var pe *faults.PanicError
	switch {
	case errors.As(err, &pe):
		return http.StatusInternalServerError
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	default:
		return http.StatusUnprocessableEntity
	}
}

// drainRate samples the completed-jobs counter into a recent
// jobs-per-second rate. Sampling is lazy — it happens on the reject path,
// which is not hot in healthy operation — and a sample younger than the
// floor returns the previous rate so a burst of rejects cannot divide by
// a near-zero interval.
type drainRate struct {
	mu     sync.Mutex
	lastNS int64
	lastN  int64
	rate   float64
}

// perSec returns the drain rate given the current completed-total.
func (d *drainRate) perSec(completed int64, now time.Time) float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	ns := now.UnixNano()
	if d.lastNS == 0 {
		d.lastNS, d.lastN = ns, completed
		return d.rate
	}
	dt := ns - d.lastNS
	if dt < int64(250*time.Millisecond) {
		return d.rate
	}
	d.rate = float64(completed-d.lastN) * 1e9 / float64(dt)
	d.lastNS, d.lastN = ns, completed
	return d.rate
}

// retryAfterHint derives a Retry-After value from the queue backlog and
// the observed drain rate: roughly how long until the queue has room,
// clamped to [1,30] seconds. An unknown or zero rate hints the maximum —
// a stalled server should not invite an immediate retry storm.
func retryAfterHint(depth int, perSec float64) int {
	if perSec <= 0 {
		return 30
	}
	secs := int(math.Ceil(float64(depth+1) / perSec))
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return secs
}

// rejectOverloaded answers a shed request: 503 plus a Retry-After hint
// derived from the current backlog and recent drain rate.
func (s *Server) rejectOverloaded(w http.ResponseWriter) {
	mRejects.Inc()
	hint := retryAfterHint(len(s.queue), s.drain.perSec(s.completed.Load(), time.Now()))
	w.Header().Set("Retry-After", strconv.Itoa(hint))
	msg := "admission queue full; retry with backoff"
	if s.draining.Load() {
		msg = "server is draining for shutdown"
	}
	writeError(w, http.StatusServiceUnavailable, msg)
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, 8<<20)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("malformed request body: %v", err))
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	if status >= 500 {
		mErrors.Inc()
	}
	writeJSON(w, status, client.ErrorResponse{Error: msg})
}
