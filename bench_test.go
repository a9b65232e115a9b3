// Package metaopt_test holds the benchmark harness: one testing.B target
// per paper table/figure (regenerating the same rows/series at reduced
// scale; cmd/experiments produces the full-scale output), plus ablation
// benches for the design choices called out in DESIGN.md and
// micro-benchmarks of the substrate. Key quality metrics are attached to
// each benchmark via ReportMetric.
package metaopt_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"metaopt/internal/analysis"
	"metaopt/internal/core"
	"metaopt/internal/experiments"
	"metaopt/internal/features"
	"metaopt/internal/lang"
	"metaopt/internal/loopgen"
	"metaopt/internal/machine"
	"metaopt/internal/ml"
	"metaopt/internal/ml/greedy"
	"metaopt/internal/ml/nn"
	"metaopt/internal/ml/svm"
	"metaopt/internal/ml/tree"
	"metaopt/internal/obs"
	"metaopt/internal/par"
	"metaopt/internal/sched"
	"metaopt/internal/serve"
	"metaopt/internal/sim"
	"metaopt/internal/swp"
	"metaopt/internal/transform"
	"metaopt/unroll"
	"metaopt/unroll/client"
)

// benchEnv is shared, lazily-built state so individual benchmarks measure
// only their own experiment, not corpus construction.
var (
	envOnce sync.Once
	benchE  *experiments.Env
	benchD  *ml.Dataset
	benchFS *core.FeatureSelection
)

func env(b *testing.B) (*experiments.Env, *ml.Dataset, *core.FeatureSelection) {
	b.Helper()
	envOnce.Do(func() {
		cfg := experiments.Config{
			Seed: 2005, Scale: 0.15, Runs: 10,
			SVMCap: 400, TrainCap: 400, SVMSample: 150,
		}
		benchE = experiments.NewEnv(cfg)
		var err error
		benchD, err = benchE.Dataset(false)
		if err != nil {
			panic(err)
		}
		benchFS, err = benchE.Features()
		if err != nil {
			panic(err)
		}
	})
	return benchE, benchD, benchFS
}

// BenchmarkTable2 regenerates the prediction-correctness table (LOOCV for
// NN and the LS-SVM plus the baseline heuristic) and reports the rank-1
// accuracies.
func BenchmarkTable2(b *testing.B) {
	e, _, _ := env(b)
	b.ResetTimer()
	var last *experiments.Table2Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table2(e)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.Table.SVMAccuracy, "svm-optimal-frac")
	b.ReportMetric(last.Table.NNAccuracy, "nn-optimal-frac")
	b.ReportMetric(last.Table.HeurAccuracy, "orc-optimal-frac")
}

// BenchmarkTable3 regenerates the mutual-information feature ranking.
func BenchmarkTable3(b *testing.B) {
	e, _, _ := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table3(e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4 regenerates greedy forward feature selection for both
// classifiers.
func BenchmarkTable4(b *testing.B) {
	_, d, _ := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt := core.DefaultSelectOptions()
		opt.SVMSample = 150
		if _, err := core.SelectFeatures(d, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure1 regenerates the LDA projection + near-neighbor
// illustration.
func BenchmarkFigure1(b *testing.B) {
	e, _, _ := env(b)
	b.ResetTimer()
	var acc float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure1(e)
		if err != nil {
			b.Fatal(err)
		}
		acc = r.NNAcc
	}
	b.ReportMetric(acc, "projected-nn-acc")
}

// BenchmarkFigure2 regenerates the 2-D SVM decision-region illustration.
func BenchmarkFigure2(b *testing.B) {
	e, _, _ := env(b)
	b.ResetTimer()
	var acc float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure2(e)
		if err != nil {
			b.Fatal(err)
		}
		acc = r.Accuracy
	}
	b.ReportMetric(acc, "svm-2d-acc")
}

// BenchmarkFigure3 regenerates the optimal-factor histogram, including the
// labeling pass over a fresh corpus.
func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := loopgen.Generate(loopgen.Options{Seed: int64(i + 3), LoopsScale: 0.1})
		if err != nil {
			b.Fatal(err)
		}
		cfg := sim.DefaultConfig()
		cfg.Runs = 5
		lb, err := core.CollectLabels(c, sim.NewTimer(cfg), 1)
		if err != nil {
			b.Fatal(err)
		}
		hist := lb.Histogram()
		if i == b.N-1 {
			b.ReportMetric(hist[1], "rolled-frac")
			b.ReportMetric(hist[8], "u8-frac")
		}
	}
}

// BenchmarkFigure4 regenerates the SWP-off speedup experiment and reports
// the overall improvements over the baseline.
func BenchmarkFigure4(b *testing.B) {
	e, _, _ := env(b)
	b.ResetTimer()
	var sum *core.SpeedupSummary
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure4(e)
		if err != nil {
			b.Fatal(err)
		}
		sum = r.Summary
	}
	b.ReportMetric(100*sum.SVMAll, "svm-overall-pct")
	b.ReportMetric(100*sum.SVMFP, "svm-fp-pct")
	b.ReportMetric(100*sum.OracleAll, "oracle-overall-pct")
}

// BenchmarkFigure5 regenerates the SWP-on speedup experiment.
func BenchmarkFigure5(b *testing.B) {
	e, _, _ := env(b)
	b.ResetTimer()
	var sum *core.SpeedupSummary
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure5(e)
		if err != nil {
			b.Fatal(err)
		}
		sum = r.Summary
	}
	b.ReportMetric(100*sum.SVMAll, "svm-overall-pct")
	b.ReportMetric(100*sum.OracleAll, "oracle-overall-pct")
}

// --- Ablations -----------------------------------------------------------

// BenchmarkAblationSVMSolver compares the LS-SVM (closed form) against the
// SMO-trained C-SVM on the same training set.
func BenchmarkAblationSVMSolver(b *testing.B) {
	_, d, fs := env(b)
	sel := d.Select(fs.Union)
	b.Run("lssvm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := (&svm.LSSVM{}).Train(sel); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("smo", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := (&svm.SMO{Seed: 1}).Train(sel); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationOutputCodes compares one-vs-rest against random
// error-correcting output codes on LOOCV accuracy.
func BenchmarkAblationOutputCodes(b *testing.B) {
	_, d, fs := env(b)
	sel := d.Select(fs.Union)
	for _, cfg := range []struct {
		name  string
		codes svm.Codes
	}{
		{"one-vs-rest", svm.OneVsRest(ml.NumClasses)},
		{"ecoc-15", svm.Random(ml.NumClasses, 15, 9)},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			var acc float64
			for i := 0; i < b.N; i++ {
				preds, err := (&svm.LSSVM{Codes: cfg.codes}).LOOCV(sel)
				if err != nil {
					b.Fatal(err)
				}
				acc = ml.Accuracy(sel, preds)
			}
			b.ReportMetric(acc, "loocv-acc")
		})
	}
}

// BenchmarkAblationFeatureSet compares the full 38-feature vector against
// the selected union subset.
func BenchmarkAblationFeatureSet(b *testing.B) {
	_, d, fs := env(b)
	for _, cfg := range []struct {
		name string
		set  *ml.Dataset
	}{
		{"all-38", d},
		{"selected-union", d.Select(fs.Union)},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			var acc float64
			for i := 0; i < b.N; i++ {
				preds, err := (&nn.Trainer{}).LOOCV(cfg.set)
				if err != nil {
					b.Fatal(err)
				}
				acc = ml.Accuracy(cfg.set, preds)
			}
			b.ReportMetric(acc, "loocv-acc")
		})
	}
}

// BenchmarkAblationNNRadius sweeps the near-neighbor radius around the
// paper's 0.3.
func BenchmarkAblationNNRadius(b *testing.B) {
	_, d, fs := env(b)
	sel := d.Select(fs.Union)
	for _, r := range []struct {
		name   string
		radius float64
	}{
		{"r0.15", 0.15}, {"r0.30", 0.30}, {"r0.60", 0.60},
	} {
		b.Run(r.name, func(b *testing.B) {
			var acc float64
			for i := 0; i < b.N; i++ {
				preds, err := (&nn.Trainer{Radius: r.radius}).LOOCV(sel)
				if err != nil {
					b.Fatal(err)
				}
				acc = ml.Accuracy(sel, preds)
			}
			b.ReportMetric(acc, "loocv-acc")
		})
	}
}

// BenchmarkAblationClassifiers is the related-work comparison: the paper's
// two learners against the boosted decision trees of Monsifrot et al. and
// a single CART tree, all on the same LOOCV protocol.
func BenchmarkAblationClassifiers(b *testing.B) {
	_, d, fs := env(b)
	sel := d.Select(fs.Union)
	for _, cfg := range []struct {
		name string
		tr   ml.Trainer
	}{
		{"nn", &nn.Trainer{}},
		{"lssvm", &svm.LSSVM{}},
		{"cart", &tree.Trainer{}},
		{"boosted-tree", &tree.Boost{Rounds: 15, MaxDepth: 4}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			var acc float64
			for i := 0; i < b.N; i++ {
				preds, err := ml.LOOCV(cfg.tr, sel)
				if err != nil {
					b.Fatal(err)
				}
				acc = ml.Accuracy(sel, preds)
			}
			b.ReportMetric(acc, "loocv-acc")
		})
	}
}

// BenchmarkAblationRegression compares classification against the
// regression extension (the paper's future-work direction).
func BenchmarkAblationRegression(b *testing.B) {
	_, d, fs := env(b)
	sel := d.Select(fs.Union)
	for _, cfg := range []struct {
		name string
		tr   ml.Trainer
	}{
		{"classify", &svm.LSSVM{}},
		{"regress", &svm.Regression{}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			var acc float64
			for i := 0; i < b.N; i++ {
				preds, err := ml.LOOCV(cfg.tr, sel)
				if err != nil {
					b.Fatal(err)
				}
				acc = ml.Accuracy(sel, preds)
			}
			b.ReportMetric(acc, "loocv-acc")
		})
	}
}

// BenchmarkAblationNoise measures how label noise degrades LOOCV accuracy:
// labels are collected at increasing measurement-noise levels.
func BenchmarkAblationNoise(b *testing.B) {
	c, err := loopgen.Generate(loopgen.Options{Seed: 17, LoopsScale: 0.1})
	if err != nil {
		b.Fatal(err)
	}
	for _, lvl := range []struct {
		name  string
		noise float64
		bias  float64
	}{
		{"clean", 0, 0}, {"paper", 0.03, 0.02}, {"noisy", 0.08, 0.05},
	} {
		b.Run(lvl.name, func(b *testing.B) {
			var acc float64
			for i := 0; i < b.N; i++ {
				cfg := sim.DefaultConfig()
				cfg.Runs = 10
				cfg.Noise = lvl.noise
				cfg.BiasNoise = lvl.bias
				t := sim.NewTimer(cfg)
				lb, err := core.CollectLabels(c, t, 5)
				if err != nil {
					b.Fatal(err)
				}
				d := lb.Dataset(t)
				preds, err := (&nn.Trainer{}).LOOCV(d)
				if err != nil {
					b.Fatal(err)
				}
				acc = ml.Accuracy(d, preds)
			}
			b.ReportMetric(acc, "loocv-acc")
		})
	}
}

// --- Parallel evaluation engine ------------------------------------------

// runWorkers runs the body under forced-serial and full-pool worker
// limits, so the parallel engine's wall-clock win (and its absence of one
// on a single-core box) shows up directly in the bench output.
func runWorkers(b *testing.B, body func(b *testing.B)) {
	for _, w := range []struct {
		name  string
		limit int
	}{
		{"serial", 1},
		{"parallel", runtime.GOMAXPROCS(0)},
	} {
		b.Run(w.name, func(b *testing.B) {
			restore := par.SetLimit(w.limit)
			defer restore()
			b.ResetTimer()
			body(b)
			b.ReportMetric(float64(w.limit), "workers")
		})
	}
}

// BenchmarkLOOCVParallel measures slow-path leave-one-out folds (the CART
// trainer has no exact shortcut) across the worker pool.
func BenchmarkLOOCVParallel(b *testing.B) {
	_, d, fs := env(b)
	sel := d.Select(fs.Union)
	tr := &tree.Trainer{MaxDepth: 4}
	runWorkers(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ml.LOOCV(tr, sel); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkLOOCVParallelNoObs is BenchmarkLOOCVParallel with telemetry
// recording disabled — compare the two to measure instrumentation overhead
// (the obs contract is < 2%; the per-item work here is a full CART
// training, so the two timestamp reads and handful of atomic adds per fold
// disappear into the noise).
func BenchmarkLOOCVParallelNoObs(b *testing.B) {
	_, d, fs := env(b)
	sel := d.Select(fs.Union)
	tr := &tree.Trainer{MaxDepth: 4}
	restore := obs.SetEnabled(false)
	defer restore()
	runWorkers(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ml.LOOCV(tr, sel); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkObsPrimitives prices the individual telemetry operations that
// sit on hot paths, so a regression in the instrumentation layer itself is
// visible in the perf trajectory.
func BenchmarkObsPrimitives(b *testing.B) {
	c := obs.C("bench.counter")
	h := obs.H("bench.hist", obs.ExpBounds(1_000, 4, 16))
	b.Run("counter_add", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c.Add(1)
		}
	})
	b.Run("histogram_observe", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			h.Observe(int64(i))
		}
	})
	b.Run("span_begin_end", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sp := obs.Begin("bench.span")
			sp.End()
		}
	})
}

// BenchmarkGreedyParallel measures greedy forward selection with its
// per-candidate-feature scoring fanned out over the pool.
func BenchmarkGreedyParallel(b *testing.B) {
	_, d, _ := env(b)
	runWorkers(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := greedy.Select(&nn.Trainer{OneNN: true}, d, 3); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSpeedupFolds measures the Figure 4 leave-one-benchmark-out
// folds running concurrently against the shared timer cache.
func BenchmarkSpeedupFolds(b *testing.B) {
	e, d, fs := env(b)
	lb, err := e.Labels(false)
	if err != nil {
		b.Fatal(err)
	}
	c, err := e.Corpus()
	if err != nil {
		b.Fatal(err)
	}
	opt := core.DefaultSpeedupOptions()
	opt.TrainCap = 250
	runWorkers(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Speedups(c, lb, d, fs.Union, e.Timer(false), opt); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Substrate micro-benchmarks ------------------------------------------

const daxpySrc = `
kernel daxpy lang=c {
	param double a;
	double x[], y[];
	noalias;
	for i = 0 .. 4096 { y[i] = y[i] + a * x[i]; }
}`

func daxpyLoop(b *testing.B) *unroll.Loop {
	b.Helper()
	k, err := lang.ParseKernel(daxpySrc)
	if err != nil {
		b.Fatal(err)
	}
	l, err := lang.Lower(k)
	if err != nil {
		b.Fatal(err)
	}
	return l
}

// BenchmarkFrontend measures parse + lowering.
func BenchmarkFrontend(b *testing.B) {
	for i := 0; i < b.N; i++ {
		k, err := lang.ParseKernel(daxpySrc)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := lang.Lower(k); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUnrollTransform measures unrolling by 8 with cleanups.
func BenchmarkUnrollTransform(b *testing.B) {
	l := daxpyLoop(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := transform.Unroll(l, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFeatureExtract measures the 38-feature extraction.
func BenchmarkFeatureExtract(b *testing.B) {
	l := daxpyLoop(b)
	m := machine.Itanium2()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		features.Extract(l, m)
	}
}

// BenchmarkListSchedule measures list scheduling of an unrolled body.
func BenchmarkListSchedule(b *testing.B) {
	l := daxpyLoop(b)
	u8, _, err := transform.Unroll(l, 8)
	if err != nil {
		b.Fatal(err)
	}
	m := machine.Itanium2()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := analysis.Build(u8, m)
		sched.List(g)
	}
}

// BenchmarkModuloSchedule measures software pipelining of an unrolled body.
func BenchmarkModuloSchedule(b *testing.B) {
	l := daxpyLoop(b)
	u4, _, err := transform.Unroll(l, 4)
	if err != nil {
		b.Fatal(err)
	}
	m := machine.Itanium2()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := analysis.Build(u4, m)
		if _, err := swp.Schedule(g, g.MII()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompilePipeline measures the full compile-and-price pipeline
// (all eight factors) for one loop.
func BenchmarkCompilePipeline(b *testing.B) {
	l := daxpyLoop(b)
	for i := 0; i < b.N; i++ {
		cfg := sim.DefaultConfig()
		cfg.Noise = 0
		t := sim.NewTimer(cfg)
		for u := 1; u <= transform.MaxFactor; u++ {
			if _, err := t.Cycles(l, u); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkMeasureAll measures the labeling path for one loop: all eight
// factors measured under the paper's noisy-median protocol against a fresh
// timer, so per-loop work (validation, rolled-body recurrence, remainder
// schedule) is paid rather than cached from a previous iteration.
func BenchmarkMeasureAll(b *testing.B) {
	l := daxpyLoop(b)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		cfg := sim.DefaultConfig()
		t := sim.NewTimer(cfg)
		if _, _, err := t.MeasureAll(l, rng, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNNPredict measures a single near-neighbor query against the
// benchmark dataset.
func BenchmarkNNPredict(b *testing.B) {
	_, d, fs := env(b)
	sel := d.Select(fs.Union)
	c, err := (&nn.Trainer{}).Train(sel)
	if err != nil {
		b.Fatal(err)
	}
	q := sel.Examples[0].Features
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Predict(q)
	}
}

// BenchmarkLSSVMPredict measures a single LS-SVM query.
func BenchmarkLSSVMPredict(b *testing.B) {
	_, d, fs := env(b)
	sel := d.Select(fs.Union)
	c, err := (&svm.LSSVM{}).Train(sel)
	if err != nil {
		b.Fatal(err)
	}
	q := sel.Examples[0].Features
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Predict(q)
	}
}

// --- Serve-path predictors -----------------------------------------------

// serveBenchEnv is the serve-path harness: one trained predictor, its
// compiled lowering, and a corpus-derived query set, built once.
var (
	serveOnce    sync.Once
	servePred    *unroll.Predictor
	serveComp    *unroll.CompiledPredictor
	serveQueries [][]float64
	serveErr     error
)

func serveEnv(b *testing.B) (*unroll.Predictor, *unroll.CompiledPredictor, [][]float64) {
	b.Helper()
	serveOnce.Do(func() {
		c, err := unroll.GenerateCorpus(5, 0.08)
		if err != nil {
			serveErr = err
			return
		}
		d, err := unroll.CollectDataset(c, unroll.CollectOptions{Seed: 1, Runs: 5})
		if err != nil {
			serveErr = err
			return
		}
		servePred, err = unroll.Train(d, unroll.TrainOptions{Algorithm: unroll.NearNeighbor})
		if err != nil {
			serveErr = err
			return
		}
		serveComp, err = unroll.Compile(servePred)
		if err != nil {
			serveErr = err
			return
		}
		qc, err := unroll.GenerateCorpus(2005, 0.3)
		if err != nil {
			serveErr = err
			return
		}
		m := unroll.Itanium2()
		for _, bm := range qc.Benchmarks {
			for _, l := range bm.Loops {
				serveQueries = append(serveQueries, unroll.Features(l, m))
				if len(serveQueries) == 256 {
					return
				}
			}
		}
	})
	if serveErr != nil {
		b.Fatal(serveErr)
	}
	return servePred, serveComp, serveQueries
}

// BenchmarkPredictSingle prices one serve-time feature-vector prediction
// on the trained classifier, the path single queries take.
func BenchmarkPredictSingle(b *testing.B) {
	pred, _, queries := serveEnv(b)
	q := queries[0]
	b.Run("interpreted", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := pred.PredictFeatures(q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPredictBatch prices a whole serve micro-batch (256 queries per
// op): per-query interpreted prediction against the compiled float32
// blocked distance path.
func BenchmarkPredictBatch(b *testing.B) {
	pred, comp, queries := serveEnv(b)
	b.Run("interpreted", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, q := range queries {
				if _, err := pred.PredictFeatures(q); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("compiled", func(b *testing.B) {
		b.ReportAllocs()
		out := make([]int, len(queries))
		for i := 0; i < b.N; i++ {
			var err error
			out, err = comp.PredictFeaturesBatch(queries, out)
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkServeTracedRequest prices one end-to-end serve request —
// through the HTTP mux, admission queue, worker, and compiled predictor —
// with full observability (request trace, SLO accounting, metrics)
// against the same path with telemetry disabled. The spread between the
// two is the observability overhead the serving layer pays per request.
func BenchmarkServeTracedRequest(b *testing.B) {
	pred, _, queries := serveEnv(b)
	srv, err := serve.New(serve.Config{
		Model:          pred,
		CacheSize:      -1, // every request must reach the model
		Workers:        2,
		RequestTimeout: 30 * time.Second,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	h := srv.Handler()
	bodies := make([][]byte, len(queries))
	for i, q := range queries {
		bodies[i], err = json.Marshal(client.PredictRequest{Features: q})
		if err != nil {
			b.Fatal(err)
		}
	}
	drive := func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(bodies[i%len(bodies)]))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				b.Fatalf("predict: %d %s", rec.Code, rec.Body.String())
			}
		}
	}
	b.Run("traced", drive)
	b.Run("untraced", func(b *testing.B) {
		restore := obs.SetEnabled(false)
		defer restore()
		drive(b)
	})
}

// BenchmarkAblationContext measures the effect of the hidden program
// context (ContextVar): with no hidden state the problem is almost fully
// feature-determined; the default setting caps accuracy near the paper's.
func BenchmarkAblationContext(b *testing.B) {
	c, err := loopgen.Generate(loopgen.Options{Seed: 19, LoopsScale: 0.1})
	if err != nil {
		b.Fatal(err)
	}
	for _, lvl := range []struct {
		name  string
		v     float64
		noise bool
	}{
		{"deterministic", 0, false}, {"context-only", 0.55, false},
		{"paper-like", 0.55, true}, {"strong", 1.0, true},
	} {
		b.Run(lvl.name, func(b *testing.B) {
			var acc float64
			for i := 0; i < b.N; i++ {
				cfg := sim.DefaultConfig()
				cfg.Runs = 10
				cfg.ContextVar = lvl.v
				if !lvl.noise {
					cfg.Noise = 0
					cfg.BiasNoise = 0
				}
				t := sim.NewTimer(cfg)
				lb, err := core.CollectLabels(c, t, 5)
				if err != nil {
					b.Fatal(err)
				}
				d := lb.Dataset(t)
				preds, err := (&svm.LSSVM{}).LOOCV(d)
				if err != nil {
					b.Fatal(err)
				}
				acc = ml.Accuracy(d, preds)
			}
			b.ReportMetric(acc, "loocv-acc")
		})
	}
}
