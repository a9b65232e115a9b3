// Command unrolld serves unroll-factor predictions over HTTP: it loads a
// versioned predictor artifact once at startup (train one with
// 'metaopt train') and answers prediction queries until drained.
//
// Usage:
//
//	metaopt train -o model.json
//	unrolld -model model.json -addr :8080
//
// Endpoints:
//
//	POST /v1/predict        {"source": "kernel ..."} or {"features": [...]}
//	POST /v1/predict/batch  {"loops": [{...}, ...]}
//	POST /v2/predict        v1 body + optional "model" pin and "tenant" label
//	POST /v2/predict/batch  v1 body + optional "model" pin and "tenant" label
//	POST /v1/admin/reload   {"path": "new-model.json"} (empty = re-read -model)
//	POST /v1/admin/shadow   {"path": "candidate.json", "fraction": 0.1}
//	GET  /v1/shadow/report  live-vs-shadow decision comparison
//	GET  /v1/model          identity of the served (default) artifact
//	GET  /v1/admin/models   every version resident in the model registry
//	POST /v1/admin/models/load     {"path": "...", "alias": "canary", "pin": true}
//	POST /v1/admin/models/promote  {"model": "<alias or fingerprint>"}
//	POST /v1/admin/models/evict    {"model": "<alias or fingerprint>"}
//	GET  /metrics           Prometheus text exposition
//	GET  /debug/traces      recent request traces (?format=chrome)
//	GET  /healthz, /readyz  liveness and readiness (+SLO detail)
//
// The registry holds up to -max-models versions at once (LRU-evicting
// unpinned, non-default ones); v2 requests pin any resident version by
// alias or fingerprint without touching the promoted default. With
// -registry-state the registry persists a manifest and restores resident
// versions across restarts.
//
// SIGTERM or SIGINT triggers a graceful drain: readiness flips to 503, new
// predictions are refused, admitted ones complete, then the process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"metaopt/internal/faults"
	"metaopt/internal/obs"
	"metaopt/internal/serve"
	"metaopt/unroll"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	model := flag.String("model", "", "predictor artifact from 'metaopt train' (required)")
	queue := flag.Int("queue", 256, "admission queue depth; overflow answers 503")
	workers := flag.Int("workers", 0, "micro-batching workers (0 = GOMAXPROCS)")
	maxBatch := flag.Int("max-batch", 32, "max loops per model dispatch")
	cache := flag.Int("cache", 4096, "prediction cache entries (negative disables)")
	timeout := flag.Duration("timeout", 5*time.Second, "per-request deadline")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Second, "graceful shutdown budget")
	panicThreshold := flag.Int("panic-threshold", 0, "consecutive worker panics before readiness flips to 503 (0 = default)")
	debugAddr := flag.String("debugaddr", "", "serve /debug/metrics and pprof on this address")
	sloAvailability := flag.Float64("slo-availability", 0, "availability objective in (0,1), e.g. 0.999 (0 = default)")
	sloP99 := flag.Duration("slo-p99", 0, "p99 latency objective, e.g. 250ms (0 = default)")
	slowTrace := flag.Duration("slow-trace", 0, "keep only request traces at least this slow in /debug/traces (0 = keep most recent)")
	maxModels := flag.Int("max-models", 0, "registry residency bound; unpinned non-default versions are LRU-evicted past it (0 = default)")
	registryState := flag.String("registry-state", "", "persist the model-registry manifest here and restore it on startup")
	flag.Parse()

	if err := faults.InstallFromEnv(); err != nil {
		fmt.Fprintf(os.Stderr, "unrolld: %v\n", err)
		os.Exit(1)
	}
	cfg := serve.Config{
		ModelPath:      *model,
		QueueDepth:     *queue,
		Workers:        *workers,
		MaxBatch:       *maxBatch,
		CacheSize:      *cache,
		PanicThreshold: *panicThreshold,
		RequestTimeout: *timeout,
		MaxModels:      *maxModels,
		RegistryState:  *registryState,

		SLOAvailability: *sloAvailability,
		SLOLatencyP99:   *sloP99,
		SlowTrace:       *slowTrace,
	}
	if err := run(*addr, *model, *debugAddr, *drainTimeout, cfg); err != nil {
		fmt.Fprintf(os.Stderr, "unrolld: %v\n", err)
		os.Exit(1)
	}
}

func run(addr, model, debugAddr string, drainTimeout time.Duration, cfg serve.Config) error {
	if model == "" {
		return fmt.Errorf("-model is required: train an artifact with 'metaopt train -o model.json'")
	}
	pred, err := unroll.LoadPredictorFile(model)
	if err != nil {
		return err
	}
	cfg.Model = pred

	srv, err := serve.New(cfg)
	if err != nil {
		return err
	}
	bound, err := srv.Start(addr)
	if err != nil {
		return err
	}
	log.Printf("unrolld: serving %s model (format v%d, fingerprint %.12s…) on %s",
		pred.Algorithm(), pred.Version(), pred.Fingerprint(), bound)
	if debugAddr != "" {
		dbg, err := obs.ServeDebug(debugAddr)
		if err != nil {
			return err
		}
		log.Printf("unrolld: debug endpoint on %s", dbg)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	got := <-sig
	log.Printf("unrolld: %s received, draining (budget %s)", got, drainTimeout)
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return err
	}
	log.Printf("unrolld: drain complete")
	return nil
}
