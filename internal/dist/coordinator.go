package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"metaopt/internal/atomicio"
	"metaopt/internal/core"
	"metaopt/internal/faults"
	"metaopt/internal/loopgen"
	"metaopt/internal/obs"
)

// Shard lifecycle. pending shards are grantable; leased shards have a live
// fence and deadline; done shards are sealed in the manifest.
const (
	shardPending = iota
	shardLeased
	shardDone
)

// CoordinatorConfig configures a labeling coordinator.
type CoordinatorConfig struct {
	Run    RunConfig // labeling configuration, the fleet's single source of truth
	Shards int       // shard count target (clamped to the benchmark count; default 16)
	Dir    string    // state directory: shard files, MANIFEST.jsonl, merged checkpoint
	Out    string    // final dataset path
	Format string    // "json", "csv" or "colstore" (default json)

	LeaseTTL          time.Duration // heartbeat-extended lease deadline (default 10s)
	MaxWorkerFailures int           // expiries+reported failures before quarantine (default 3)
	MaxShardAttempts  int           // lease grants per shard before the run aborts (default 6)
	Linger            time.Duration // how long to keep answering "stop" after the merge (default 2s)

	Now func() time.Time // injectable clock for tests
}

func (cfg *CoordinatorConfig) fill() error {
	if cfg.Dir == "" {
		return errors.New("dist: coordinator needs a state dir")
	}
	if cfg.Out == "" {
		return errors.New("dist: coordinator needs an output path")
	}
	if cfg.Run.Scale <= 0 {
		cfg.Run.Scale = 1.0
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 16
	}
	switch cfg.Format {
	case "":
		cfg.Format = "json"
	case "json", "csv", "colstore":
	default:
		return fmt.Errorf("dist: unknown dataset format %q", cfg.Format)
	}
	cfg.LeaseTTL = defaultDur(cfg.LeaseTTL, 10*time.Second)
	cfg.Linger = defaultDur(cfg.Linger, 2*time.Second)
	if cfg.MaxWorkerFailures <= 0 {
		cfg.MaxWorkerFailures = 3
	}
	if cfg.MaxShardAttempts <= 0 {
		cfg.MaxShardAttempts = 6
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return nil
}

// shardState is one shard's coordinator-side record.
type shardState struct {
	id         int
	benchmarks []string // sorted benchmark names
	state      int
	fence      uint64 // token of the current (or last) lease
	worker     string // holder of the current lease
	deadline   time.Time
	attempts   int    // lease grants so far
	file       string // checkpoint file name once done
}

// workerState tracks one worker's health.
type workerState struct {
	failures    int
	quarantined bool
	lastSeen    time.Time
}

// Coordinator owns the shard plan, the lease state machine, and the merge.
type Coordinator struct {
	cfg    CoordinatorConfig
	corpus *loopgen.Corpus

	mu         sync.Mutex
	shards     []*shardState
	byName     map[string]int // benchmark name → shard id (upload validation)
	workers    map[string]*workerState
	fence      uint64 // monotonic fencing-token counter
	doneN      int
	failure    error // sticky: a poison shard aborts the run
	man        *manifestLog
	mergedFlag bool

	done chan struct{} // closed when every shard is sealed or the run fails
}

// NewCoordinator plans the shards, replays any existing manifest in
// cfg.Dir (verifying every sealed shard file against its digest), and
// returns a coordinator ready to serve. Restarting over the same directory
// resumes exactly where the killed process durably got to.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	corpus, err := corpusFor(cfg.Run)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("dist: %w", err)
	}
	c := &Coordinator{
		cfg:     cfg,
		corpus:  corpus,
		byName:  map[string]int{},
		workers: map[string]*workerState{},
		done:    make(chan struct{}),
	}
	c.planShards()
	if err := c.replayManifest(); err != nil {
		return nil, err
	}
	c.man, err = openManifest(cfg.Dir)
	if err != nil {
		return nil, err
	}
	c.publishGauges()
	if c.doneN == len(c.shards) {
		close(c.done)
	}
	return c, nil
}

// planShards splits the corpus into contiguous, deterministic groups of
// benchmarks. Work is leased by benchmark name; both sides regenerate the
// corpus from (seed, scale), so shard contents never travel on the wire
// beyond the names.
func (c *Coordinator) planShards() {
	bs := c.corpus.Benchmarks
	n := c.cfg.Shards
	if n > len(bs) {
		n = len(bs)
	}
	for s := 0; s < n; s++ {
		lo, hi := s*len(bs)/n, (s+1)*len(bs)/n
		sh := &shardState{id: s}
		for _, b := range bs[lo:hi] {
			sh.benchmarks = append(sh.benchmarks, b.Name)
			c.byName[b.Name] = s
		}
		sort.Strings(sh.benchmarks)
		c.shards = append(c.shards, sh)
	}
}

// replayManifest restores sealed shards from the append-only log. A record
// is only honored when it names a planned shard with exactly the planned
// benchmarks and its file still hashes to the recorded digest; anything
// else demotes the shard to pending (counted) rather than trusting it.
func (c *Coordinator) replayManifest() error {
	recs, err := loadManifest(filepath.Join(c.cfg.Dir, ManifestName))
	if err != nil {
		return err
	}
	for _, rec := range recs {
		if rec.Fence > c.fence {
			c.fence = rec.Fence
		}
		if rec.Shard >= len(c.shards) {
			mManifestDrop.Inc()
			continue
		}
		sh := c.shards[rec.Shard]
		if !equalStrings(sh.benchmarks, rec.Benchmarks) {
			mManifestDrop.Inc()
			log.Printf("dist: manifest shard %d covers different benchmarks than the plan; ignoring (stale state dir?)", rec.Shard)
			continue
		}
		path := filepath.Join(c.cfg.Dir, rec.File)
		sum, err := fileSHA256(path)
		if err != nil || sum != rec.SHA256 {
			mShardCorrupt.Inc()
			log.Printf("dist: shard %d file %s fails verification (%v); re-leasing", rec.Shard, rec.File, err)
			continue
		}
		sh.state = shardDone
		sh.fence = rec.Fence
		sh.file = rec.File
		c.doneN++
		mManifestReplay.Inc()
	}
	if c.doneN > 0 {
		log.Printf("dist: manifest replay restored %d/%d sealed shards", c.doneN, len(c.shards))
	}
	return nil
}

// Handler mounts the cluster protocol plus health and metrics endpoints.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/dist/lease", c.handleLease)
	mux.HandleFunc("POST /v1/dist/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("POST /v1/dist/upload", c.handleUpload)
	mux.HandleFunc("POST /v1/dist/fail", c.handleFail)
	mux.HandleFunc("GET /v1/dist/status", c.handleStatus)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		obs.Default.WritePrometheus(w)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("ok\n"))
	})
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// handleLease grants the lowest pending shard under a fresh fencing token.
// A worker that already holds a live lease (a fast crash-restart under the
// same name) gets its shard re-granted under a new token, which fences any
// zombie twin still holding the old one.
func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	req, err := DecodeLeaseRequest(http.MaxBytesReader(w, r.Body, maxWireBody))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, Ack{Status: StatusFenced, Reason: err.Error()})
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.Now()
	ws := c.workerLocked(req.Worker, now)
	if ws.quarantined {
		writeJSON(w, http.StatusOK, LeaseResponse{Status: StatusQuarantined})
		return
	}
	if c.failure != nil || c.doneN == len(c.shards) {
		writeJSON(w, http.StatusOK, LeaseResponse{Status: StatusStop})
		return
	}
	var grant *shardState
	for _, sh := range c.shards {
		if sh.state == shardLeased && sh.worker == req.Worker {
			grant = sh // re-grant after a fast restart; fences the old lease
			break
		}
	}
	if grant == nil {
		for _, sh := range c.shards {
			if sh.state == shardPending {
				grant = sh
				break
			}
		}
	}
	if grant == nil {
		writeJSON(w, http.StatusOK, LeaseResponse{Status: StatusWait, TTLMillis: c.cfg.LeaseTTL.Milliseconds()})
		return
	}
	grant.attempts++
	if grant.attempts > c.cfg.MaxShardAttempts {
		c.failLocked(fmt.Errorf("dist: shard %d failed %d lease attempts; aborting the run", grant.id, grant.attempts-1))
		writeJSON(w, http.StatusOK, LeaseResponse{Status: StatusStop})
		return
	}
	if grant.attempts > 1 {
		mShardRetries.Inc()
	}
	c.fence++
	grant.state = shardLeased
	grant.fence = c.fence
	grant.worker = req.Worker
	grant.deadline = now.Add(c.cfg.LeaseTTL)
	mLeasesGranted.Inc()
	c.publishGauges()
	writeJSON(w, http.StatusOK, LeaseResponse{
		Status:     StatusLease,
		Shard:      grant.id,
		Fence:      grant.fence,
		Benchmarks: append([]string(nil), grant.benchmarks...),
		TTLMillis:  c.cfg.LeaseTTL.Milliseconds(),
		Config:     c.cfg.Run,
	})
}

// handleHeartbeat extends a live lease; anything else answers fenced.
func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	hb, err := DecodeHeartbeatRequest(http.MaxBytesReader(w, r.Body, maxWireBody))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, Ack{Status: StatusFenced, Reason: err.Error()})
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.Now()
	c.workerLocked(hb.Worker, now)
	sh := c.shardLocked(hb.Shard)
	if sh == nil || sh.state != shardLeased || sh.fence != hb.Fence || sh.worker != hb.Worker {
		mLeasesFenced.Inc()
		writeJSON(w, http.StatusOK, Ack{Status: StatusFenced, Reason: "lease is not current"})
		return
	}
	sh.deadline = now.Add(c.cfg.LeaseTTL)
	writeJSON(w, http.StatusOK, Ack{Status: StatusOK})
}

// handleUpload seals a shard: the fence must be the shard's current live
// lease (at-most-once semantics — an expired or reassigned lease's token
// is rejected), the checkpoint must match the run configuration and cover
// exactly the shard's benchmarks, and the record only counts once the
// shard file is durable and its manifest line fsynced. Re-uploading an
// already sealed shard under its sealing fence is acknowledged idempotently
// (the worker may have missed the first ack).
func (c *Coordinator) handleUpload(w http.ResponseWriter, r *http.Request) {
	up, err := DecodeUploadRequest(http.MaxBytesReader(w, r.Body, maxUploadBody))
	if err != nil {
		mUploadsBad.Inc()
		writeJSON(w, http.StatusBadRequest, Ack{Status: StatusFenced, Reason: err.Error()})
		return
	}
	ck, err := core.DecodeCheckpoint(bytes.NewReader(up.Checkpoint))
	if err != nil {
		mUploadsBad.Inc()
		writeJSON(w, http.StatusBadRequest, Ack{Status: StatusFenced, Reason: err.Error()})
		return
	}

	c.mu.Lock()
	now := c.cfg.Now()
	c.workerLocked(up.Worker, now)
	sh := c.shardLocked(up.Shard)
	if sh == nil {
		c.mu.Unlock()
		mUploadsBad.Inc()
		writeJSON(w, http.StatusNotFound, Ack{Status: StatusFenced, Reason: "unknown shard"})
		return
	}
	if sh.state == shardDone {
		ok := sh.fence == up.Fence
		c.mu.Unlock()
		if ok {
			writeJSON(w, http.StatusOK, Ack{Status: StatusOK})
		} else {
			mUploadsFenced.Inc()
			writeJSON(w, http.StatusOK, Ack{Status: StatusFenced, Reason: "shard already sealed under a different lease"})
		}
		return
	}
	if sh.state != shardLeased || sh.fence != up.Fence || sh.worker != up.Worker {
		c.mu.Unlock()
		mUploadsFenced.Inc()
		mLeasesFenced.Inc()
		writeJSON(w, http.StatusOK, Ack{Status: StatusFenced, Reason: "lease is not current"})
		return
	}
	if err := c.validateShardCheckpointLocked(sh, ck); err != nil {
		// The worker labeled the wrong thing; its lease is revoked and the
		// shard re-leased. This counts against the worker's budget.
		c.releaseLocked(sh)
		c.noteFailureLocked(up.Worker, err)
		c.mu.Unlock()
		mUploadsBad.Inc()
		writeJSON(w, http.StatusUnprocessableEntity, Ack{Status: StatusFenced, Reason: err.Error()})
		return
	}
	c.mu.Unlock()

	// Seal outside the lock: canonical re-encode, atomic write, digest,
	// manifest append. The injected-fault site lets chaos tests fail the
	// seal and assert the worker's retry path.
	if err := faults.Check(SiteUpload); err == nil {
		err = c.sealShard(sh, up.Fence, ck)
		if err == nil {
			writeJSON(w, http.StatusOK, Ack{Status: StatusOK})
			return
		}
		log.Printf("dist: seal shard %d: %v", sh.id, err)
	} else {
		log.Printf("dist: upload shard %d: %v", sh.id, err)
	}
	// The seal did not become durable; the lease stays live and the worker
	// retries the upload.
	w.Header().Set("Retry-After", "1")
	writeJSON(w, http.StatusInternalServerError, Ack{Status: StatusOK, Reason: "seal failed; retry"})
}

// sealShard writes the canonical shard checkpoint and its manifest line,
// then flips the shard to done. Named by shard id so a retried upload
// overwrites rather than duplicates.
func (c *Coordinator) sealShard(sh *shardState, fence uint64, ck *core.Checkpoint) error {
	var buf bytes.Buffer
	if err := ck.Encode(&buf); err != nil {
		return err
	}
	name := fmt.Sprintf("shard-%04d.ckpt", sh.id)
	if err := atomicio.WriteFile(filepath.Join(c.cfg.Dir, name), func(w io.Writer) error {
		_, err := w.Write(buf.Bytes())
		return err
	}); err != nil {
		return err
	}
	rec := ManifestRecord{
		Shard:      sh.id,
		Fence:      fence,
		File:       name,
		SHA256:     sha256Of(buf.Bytes()),
		Benchmarks: append([]string(nil), sh.benchmarks...),
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if sh.state == shardDone { // a racing retry sealed it first
		return nil
	}
	if sh.fence != fence || sh.state != shardLeased {
		mUploadsFenced.Inc()
		return fmt.Errorf("dist: shard %d lease changed during seal", sh.id)
	}
	if err := c.man.append(rec); err != nil {
		return err
	}
	sh.state = shardDone
	sh.file = name
	c.doneN++
	mUploadsOK.Inc()
	c.publishGauges()
	if c.doneN == len(c.shards) {
		close(c.done)
	}
	return nil
}

// handleFail releases a shard whose worker reported it cannot finish,
// counting the failure against the worker's budget.
func (c *Coordinator) handleFail(w http.ResponseWriter, r *http.Request) {
	fr, err := DecodeFailRequest(http.MaxBytesReader(w, r.Body, maxWireBody))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, Ack{Status: StatusFenced, Reason: err.Error()})
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.Now()
	c.workerLocked(fr.Worker, now)
	sh := c.shardLocked(fr.Shard)
	if sh == nil || sh.state != shardLeased || sh.fence != fr.Fence || sh.worker != fr.Worker {
		mLeasesFenced.Inc()
		writeJSON(w, http.StatusOK, Ack{Status: StatusFenced, Reason: "lease is not current"})
		return
	}
	log.Printf("dist: worker %s failed shard %d: %s", fr.Worker, fr.Shard, fr.Error)
	c.releaseLocked(sh)
	c.noteFailureLocked(fr.Worker, errors.New(fr.Error))
	c.publishGauges()
	writeJSON(w, http.StatusOK, Ack{Status: StatusOK})
}

// StatusReport is the coordinator's live state snapshot.
type StatusReport struct {
	Shards  int    `json:"shards"`
	Pending int    `json:"pending"`
	Leased  int    `json:"leased"`
	Done    int    `json:"done"`
	Merged  bool   `json:"merged"`
	Failed  string `json:"failed,omitempty"`
	Fence   uint64 `json:"fence"`

	Workers []WorkerReport `json:"workers"`
}

// WorkerReport is one worker's supervision state.
type WorkerReport struct {
	Name        string `json:"name"`
	Failures    int    `json:"failures"`
	Quarantined bool   `json:"quarantined"`
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, c.Status())
}

// Status snapshots the run.
func (c *Coordinator) Status() StatusReport {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := StatusReport{Shards: len(c.shards), Fence: c.fence, Merged: c.mergedLocked()}
	if c.failure != nil {
		st.Failed = c.failure.Error()
	}
	for _, sh := range c.shards {
		switch sh.state {
		case shardPending:
			st.Pending++
		case shardLeased:
			st.Leased++
		case shardDone:
			st.Done++
		}
	}
	for name := range c.workers {
		ws := c.workers[name]
		st.Workers = append(st.Workers, WorkerReport{Name: name, Failures: ws.failures, Quarantined: ws.quarantined})
	}
	sort.Slice(st.Workers, func(i, j int) bool { return st.Workers[i].Name < st.Workers[j].Name })
	return st
}

func (c *Coordinator) mergedLocked() bool { return c.mergedFlag }

// ExpireLeases revokes every lease past its deadline, returning those
// shards to the pending pool and charging the holders' failure budgets.
// Run's supervision ticker calls it; tests with an injected clock call it
// directly.
func (c *Coordinator) ExpireLeases() {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.Now()
	for _, sh := range c.shards {
		if sh.state == shardLeased && now.After(sh.deadline) {
			log.Printf("dist: lease on shard %d by %s expired; re-leasing", sh.id, sh.worker)
			mLeasesExpired.Inc()
			holder := sh.worker
			c.releaseLocked(sh)
			c.noteFailureLocked(holder, fmt.Errorf("lease on shard %d expired", sh.id))
		}
	}
	c.publishGauges()
}

// releaseLocked returns a leased shard to the pending pool. Its fence stays
// recorded so any message still carrying it mismatches (the shard is no
// longer leased), and the next grant mints a strictly larger token.
func (c *Coordinator) releaseLocked(sh *shardState) {
	sh.state = shardPending
	sh.worker = ""
	sh.deadline = time.Time{}
}

// noteFailureLocked charges one failure and quarantines the worker once its
// budget is spent.
func (c *Coordinator) noteFailureLocked(worker string, cause error) {
	ws := c.workers[worker]
	if ws == nil {
		ws = &workerState{}
		c.workers[worker] = ws
	}
	ws.failures++
	if !ws.quarantined && ws.failures >= c.cfg.MaxWorkerFailures {
		ws.quarantined = true
		mQuarantined.Inc()
		log.Printf("dist: worker %s quarantined after %d failures (last: %v)", worker, ws.failures, cause)
	}
}

// failLocked records a fatal run error and releases every waiting worker.
func (c *Coordinator) failLocked(err error) {
	if c.failure == nil {
		c.failure = err
		close(c.done)
	}
}

func (c *Coordinator) workerLocked(name string, now time.Time) *workerState {
	ws := c.workers[name]
	if ws == nil {
		ws = &workerState{}
		c.workers[name] = ws
	}
	ws.lastSeen = now
	return ws
}

func (c *Coordinator) shardLocked(id int) *shardState {
	if id < 0 || id >= len(c.shards) {
		return nil
	}
	return c.shards[id]
}

// validateShardCheckpointLocked guards the merge against a worker that
// labeled under the wrong configuration or the wrong shard: the checkpoint
// must be config-compatible with the run and cover exactly the shard's
// benchmarks.
func (c *Coordinator) validateShardCheckpointLocked(sh *shardState, ck *core.Checkpoint) error {
	want := RunConfig{Seed: c.cfg.Run.Seed, Scale: c.cfg.Run.Scale, Runs: c.cfg.Run.Runs, SWP: c.cfg.Run.SWP, Replicate: c.cfg.Run.Replicate}
	expect := core.NewCheckpoint(timerFor(want), want.Seed)
	if err := expect.CompatibleWith(ck); err != nil {
		return err
	}
	if len(ck.Benchmarks) != len(sh.benchmarks) {
		return fmt.Errorf("dist: shard %d upload covers %d benchmarks, want %d", sh.id, len(ck.Benchmarks), len(sh.benchmarks))
	}
	for _, name := range sh.benchmarks {
		if _, ok := ck.Benchmarks[name]; !ok {
			return fmt.Errorf("dist: shard %d upload is missing benchmark %q", sh.id, name)
		}
	}
	return nil
}

func (c *Coordinator) publishGauges() {
	var p, l, d int64
	for _, sh := range c.shards {
		switch sh.state {
		case shardPending:
			p++
		case shardLeased:
			l++
		case shardDone:
			d++
		}
	}
	gShardsPending.Set(p)
	gShardsLeased.Set(l)
	gShardsDone.Set(d)
	var live int64
	for _, ws := range c.workers {
		if !ws.quarantined {
			live++
		}
	}
	gWorkersLive.Set(live)
}

// Done is closed when every shard is sealed (or the run failed); Finish
// may then merge.
func (c *Coordinator) Done() <-chan struct{} { return c.done }

// Err reports the sticky run failure, if any.
func (c *Coordinator) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failure
}

// Run serves the cluster protocol on addr until every shard is sealed (or
// ctx ends), then merges and writes the dataset, keeps answering "stop"
// for the linger window so live workers exit cleanly, and shuts down.
func (c *Coordinator) Run(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("dist: %w", err)
	}
	srv := &http.Server{Handler: c.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	log.Printf("dist: coordinator serving on %s (%d shards)", ln.Addr(), len(c.shards))

	tick := c.cfg.LeaseTTL / 4
	if tick < 50*time.Millisecond {
		tick = 50 * time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()

	var runErr error
loop:
	for {
		select {
		case <-c.done:
			break loop
		case <-ticker.C:
			c.ExpireLeases()
		case <-ctx.Done():
			runErr = ctx.Err()
			break loop
		case err := <-serveErr:
			runErr = err
			break loop
		}
	}
	if runErr == nil {
		runErr = c.Err()
	}
	if runErr == nil {
		runErr = c.Finish()
	}
	if runErr == nil && c.cfg.Linger > 0 {
		timer := time.NewTimer(c.cfg.Linger)
		select {
		case <-timer.C:
		case <-ctx.Done():
		}
		timer.Stop()
	}
	shCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	srv.Shutdown(shCtx)
	return runErr
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
