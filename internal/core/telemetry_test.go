package core

import (
	"reflect"
	"testing"

	"metaopt/internal/obs"
)

// snapshotCounters runs the full pipeline at a fixed seed on a fresh
// telemetry slate and returns every counter value.
func snapshotCounters(t *testing.T, workers int) map[string]int64 {
	t.Helper()
	obs.Reset()
	runPipeline(t, workers)
	return obs.Default.Snapshot().Counters
}

// TestTelemetryDeterministicParallel is the manifest golden test: for a
// small fixed-seed run, every counter the manifest reports is identical
// run to run and across worker-pool widths. The timer compiles each
// (loop, unroll) pair once whatever the interleaving, so its hit/miss
// split is stable even when workers ask for the same pair at once.
func TestTelemetryDeterministicParallel(t *testing.T) {
	first := snapshotCounters(t, 8)
	second := snapshotCounters(t, 8)
	serial := snapshotCounters(t, 1)

	if !reflect.DeepEqual(first, second) {
		t.Fatalf("same-seed runs disagree:\nfirst:  %v\nsecond: %v", first, second)
	}
	if !reflect.DeepEqual(first, serial) {
		t.Fatalf("parallel and serial metric values disagree:\nparallel: %v\nserial:   %v", first, serial)
	}

	// Golden structural facts for the Seed=41/Scale=0.05 pipeline run:
	// compilations happen (misses), the cache is re-hit during repeated
	// measurement (hits), and every pipeline stage left its footprint.
	for _, name := range []string{
		"sim.compile_cache.hits",
		"sim.compile_cache.misses",
		"sim.measurements",
		"sim.cycles_simulated",
		"sim.schedules_built",
		"core.loops_labeled",
		"core.speedup_folds",
		"ml.loocv_folds",
		"par.items_processed",
		"par.stages",
	} {
		if first[name] <= 0 {
			t.Errorf("counter %s = %d, want > 0 (counters: %v)", name, first[name], first)
		}
	}
	// Hit rate must be meaningful: labeling measures each (loop, unroll)
	// pair once per compile, then the speedup folds re-measure the same
	// loops against a warm cache.
	hits, misses := first["sim.compile_cache.hits"], first["sim.compile_cache.misses"]
	if hitRate := float64(hits) / float64(hits+misses); hitRate <= 0 {
		t.Errorf("compile-cache hit rate = %v, want > 0", hitRate)
	}
}

// TestManifestDeterministic builds two full manifests from back-to-back
// same-seed runs and asserts the metric sections match exactly, so
// manifests are diffable across runs.
func TestManifestDeterministic(t *testing.T) {
	obs.Reset()
	runPipeline(t, 4)
	m1 := obs.BuildManifest("test", nil, 41, 4, nil)

	obs.Reset()
	runPipeline(t, 4)
	m2 := obs.BuildManifest("test", nil, 41, 4, nil)

	if !reflect.DeepEqual(m1.Counters, m2.Counters) {
		t.Fatalf("manifest counters differ:\nfirst:  %v\nsecond: %v", m1.Counters, m2.Counters)
	}
	if !reflect.DeepEqual(m1.Gauges, m2.Gauges) {
		t.Fatalf("manifest gauges differ:\nfirst:  %v\nsecond: %v", m1.Gauges, m2.Gauges)
	}
	if len(m1.Phases) == 0 || len(m1.Stages) == 0 {
		t.Fatalf("manifest missing phases (%d) or stages (%d)", len(m1.Phases), len(m1.Stages))
	}
}
