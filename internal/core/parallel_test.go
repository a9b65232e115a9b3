package core

import (
	"reflect"
	"testing"

	"metaopt/internal/loopgen"
	"metaopt/internal/ml"
	"metaopt/internal/ml/greedy"
	"metaopt/internal/ml/tree"
	"metaopt/internal/obs"
	"metaopt/internal/par"
	"metaopt/internal/sim"
)

// runPipeline executes the full evaluation pipeline — label collection,
// slow-path LOOCV, greedy selection, and the speedup folds — at the given
// worker-pool limit, and returns every output that must be bit-identical
// across limits.
func runPipeline(t *testing.T, workers int) (*Labels, []int, []greedy.Result, *SpeedupSummary) {
	t.Helper()
	restore := par.SetLimit(workers)
	defer restore()

	c, err := loopgen.Generate(loopgen.Options{Seed: 41, LoopsScale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	cfg.Runs = 5
	tm := sim.NewTimer(cfg)
	lb, err := CollectLabels(c, tm, 7)
	if err != nil {
		t.Fatal(err)
	}
	d := lb.Dataset(tm)
	if d.Len() < 4 {
		t.Fatalf("dataset too small to exercise the pipeline: %d examples", d.Len())
	}

	// Slow-path LOOCV: the CART trainer has no exact shortcut, so ml.LOOCV
	// fans its folds out over the pool.
	preds, err := ml.LOOCV(&tree.Trainer{MaxDepth: 3}, d)
	if err != nil {
		t.Fatal(err)
	}

	gr, err := greedy.Select(&tree.Trainer{MaxDepth: 3}, d, 3)
	if err != nil {
		t.Fatal(err)
	}

	sum, err := Speedups(c, lb, d, []int{0, 1, 2, 3, 4}, tm, SpeedupOptions{TrainCap: 100, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	return lb, preds, gr, sum
}

// TestParallelBitIdenticalToSerial is the engine's core guarantee: a run
// over the full worker pool produces byte-for-byte the same labels, LOOCV
// predictions, greedy selections, and Figure 4 speedup rows as a forced
// workers=1 run. Telemetry (internal/obs) is active throughout — the test
// also asserts the run was actually instrumented, so the guarantee is
// checked with telemetry enabled, not around it.
func TestParallelBitIdenticalToSerial(t *testing.T) {
	before := obs.Default.Snapshot().Counters
	lb1, preds1, gr1, sum1 := runPipeline(t, 1)
	lb8, preds8, gr8, sum8 := runPipeline(t, 8)
	after := obs.Default.Snapshot().Counters
	if after["sim.measurements"] <= before["sim.measurements"] ||
		after["par.items_processed"] <= before["par.items_processed"] {
		t.Fatalf("telemetry did not advance during the pipeline: before=%v after=%v", before, after)
	}

	if len(lb1.Order) != len(lb8.Order) {
		t.Fatalf("label counts differ: %d vs %d", len(lb1.Order), len(lb8.Order))
	}
	for i := range lb1.Order {
		a, b := lb1.Order[i], lb8.Order[i]
		if a.Benchmark != b.Benchmark || a.Best != b.Best || a.Cycles != b.Cycles ||
			a.Usable != b.Usable || a.Kept != b.Kept {
			t.Fatalf("label %d differs: %+v vs %+v", i, a, b)
		}
	}
	if !reflect.DeepEqual(preds1, preds8) {
		t.Fatalf("LOOCV predictions differ:\nserial:   %v\nparallel: %v", preds1, preds8)
	}
	if !reflect.DeepEqual(gr1, gr8) {
		t.Fatalf("greedy selections differ:\nserial:   %+v\nparallel: %+v", gr1, gr8)
	}
	if !reflect.DeepEqual(sum1, sum8) {
		t.Fatalf("speedup summaries differ:\nserial:   %+v\nparallel: %+v", sum1, sum8)
	}
}
