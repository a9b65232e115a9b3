// Command benchdump runs the repository's hot-path benchmarks through
// testing.Benchmark and writes the results as machine-readable JSON
// (ns/op, B/op, allocs/op), so performance can be tracked in version
// control and gated in CI without parsing `go test -bench` text output.
//
// Modes:
//
//	benchdump -out BENCH_10.json           run the suite, write JSON
//	benchdump -compare old.json -against new.json -gate LOOCVParallel,PredictBatch
//	                                       diff two dumps; non-zero exit if a
//	                                       gated benchmark regressed by more
//	                                       than -threshold (default 10%)
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"metaopt/internal/analysis"
	"metaopt/internal/core"
	"metaopt/internal/experiments"
	"metaopt/internal/lang"
	"metaopt/internal/linalg"
	"metaopt/internal/loopgen"
	"metaopt/internal/machine"
	"metaopt/internal/ml"
	"metaopt/internal/ml/greedy"
	"metaopt/internal/ml/nn"
	"metaopt/internal/ml/svm"
	"metaopt/internal/ml/tree"
	"metaopt/internal/sched"
	"metaopt/internal/serve"
	"metaopt/internal/sim"
	"metaopt/internal/transform"
	"metaopt/unroll"
	"metaopt/unroll/client"
)

// Result is one benchmark's measurement.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// Dump is the file format.
type Dump struct {
	GoVersion  string   `json:"go_version"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	Benchmarks []Result `json:"benchmarks"`
}

const daxpySrc = `
kernel daxpy lang=c {
	param double a;
	double x[], y[];
	noalias;
	for i = 0 .. 4096 { y[i] = y[i] + a * x[i]; }
}`

func daxpyLoop() (*unroll.Loop, error) {
	k, err := lang.ParseKernel(daxpySrc)
	if err != nil {
		return nil, err
	}
	return lang.Lower(k)
}

// lssvmSystem is a seeded LS-SVM system matrix K + I/γ of order n: the RBF
// Gram matrix of n random points in the unit 5-cube plus the default ridge.
func lssvmSystem(n int) *linalg.Matrix {
	rng := rand.New(rand.NewSource(1))
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = make([]float64, 5)
		for f := range pts[i] {
			pts[i][f] = rng.Float64()
		}
	}
	a := linalg.NewMatrix(n, n)
	for i := range pts {
		for j := range pts {
			a.Set(i, j, math.Exp(-linalg.SqDist(pts[i], pts[j])/0.5))
		}
		a.Add(i, i, 1.0/svm.DefaultGamma)
	}
	return a
}

// suite builds the benchmark closures. The corpus-backed entries share one
// lazily-built environment (the same configuration the bench_test.go
// harness uses), so the dump prices the benchmarks, not corpus setup. The
// cleanup function removes the on-disk dataset fixture the load benchmark
// reads.
func suite() ([]struct {
	name string
	fn   func(b *testing.B)
}, func(), error) {
	cleanup := func() {}
	l, err := daxpyLoop()
	if err != nil {
		return nil, cleanup, err
	}
	env := experiments.NewEnv(experiments.Config{
		Seed: 2005, Scale: 0.15, Runs: 10,
		SVMCap: 400, TrainCap: 400, SVMSample: 150,
	})
	d, err := env.Dataset(false)
	if err != nil {
		return nil, cleanup, err
	}
	fs, err := env.Features()
	if err != nil {
		return nil, cleanup, err
	}
	sel := d.Select(fs.Union)
	nnc, err := (&nn.Trainer{}).Train(sel)
	if err != nil {
		return nil, cleanup, err
	}
	m := machine.Itanium2()
	u8, _, err := transform.Unroll(l, 8)
	if err != nil {
		return nil, cleanup, err
	}

	// Serve-path predictors: one trained model, its compiled lowering, and
	// a corpus-derived 256-query batch.
	pc, err := unroll.GenerateCorpus(5, 0.08)
	if err != nil {
		return nil, cleanup, err
	}
	pd, err := unroll.CollectDataset(pc, unroll.CollectOptions{Seed: 1, Runs: 5})
	if err != nil {
		return nil, cleanup, err
	}
	pred, err := unroll.Train(pd, unroll.TrainOptions{Algorithm: unroll.NearNeighbor})
	if err != nil {
		return nil, cleanup, err
	}
	comp, err := unroll.Compile(pred)
	if err != nil {
		return nil, cleanup, err
	}
	qc, err := unroll.GenerateCorpus(2005, 0.3)
	if err != nil {
		return nil, cleanup, err
	}
	um := unroll.Itanium2()
	var queries [][]float64
	var sources []string
	for _, bm := range qc.Benchmarks {
		sources = append(sources, bm.Sources...)
	}
collect:
	for _, bm := range qc.Benchmarks {
		for _, lp := range bm.Loops {
			queries = append(queries, unroll.Features(lp, um))
			if len(queries) == 256 {
				break collect
			}
		}
	}

	// On-disk dataset fixture for the load benchmark: the serve-path
	// dataset in the JSON release format.
	fixtures, err := os.MkdirTemp("", "benchdump")
	if err != nil {
		return nil, cleanup, err
	}
	cleanup = func() { os.RemoveAll(fixtures) }
	jsonPath := filepath.Join(fixtures, "dataset.json")
	jf, err := os.Create(jsonPath)
	if err != nil {
		return nil, cleanup, err
	}
	if err := pd.Save(jf); err != nil {
		jf.Close()
		return nil, cleanup, err
	}
	if err := jf.Close(); err != nil {
		return nil, cleanup, err
	}
	sel.BuildColumns()

	// Labeling corpus: generated once, outside the timer.
	lc, err := loopgen.Generate(loopgen.Options{Seed: 2005, LoopsScale: 0.1})
	if err != nil {
		return nil, cleanup, err
	}

	return []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"LOOCVParallel", func(b *testing.B) {
			tr := &tree.Trainer{MaxDepth: 4}
			for i := 0; i < b.N; i++ {
				if _, err := ml.LOOCV(tr, sel); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"LOOCVColumnar", func(b *testing.B) {
			tr := &nn.Trainer{}
			for i := 0; i < b.N; i++ {
				if _, err := tr.LOOCV(sel); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"Cholesky", func(b *testing.B) {
			// One LS-SVM system at the fold training cap: the factorization
			// plus the inverse diagonal exact LOOCV reads. Each iteration
			// factors a fresh copy, made outside the timer.
			const n = 1500
			a := lssvmSystem(n)
			work := linalg.NewMatrix(n, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for r := 0; r < n; r++ {
					copy(work.Row(r), a.Row(r))
				}
				b.StartTimer()
				ch, err := linalg.NewCholesky(work)
				if err != nil {
					b.Fatal(err)
				}
				ch.InverseDiagonal()
			}
		}},
		{"SolveMany", func(b *testing.B) {
			// The solve newSystem makes at the fold training cap: nine
			// right-hand sides (the ones vector and eight output-code
			// bits) in one forward and one backward pass over the factor.
			const n = 1500
			ch, err := linalg.NewCholesky(lssvmSystem(n))
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(2))
			bs := make([][]float64, 9)
			for r := range bs {
				bs[r] = make([]float64, n)
				for i := range bs[r] {
					bs[r][i] = rng.NormFloat64()
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ch.SolveMany(bs)
			}
		}},
		{"Gram", func(b *testing.B) {
			// One LS-SVM Gram matrix at the fold training cap, built as
			// svm's rbfGram builds it: the lower triangle of squared
			// distances over 11 feature columns in the unit cube, then
			// every row exponentiated at bandwidth 1.
			const n, dim = 1500, 11
			rng := rand.New(rand.NewSource(1))
			cols := make([][]float64, dim)
			for f := range cols {
				cols[f] = make([]float64, n)
				for i := range cols[f] {
					cols[f][i] = rng.Float64()
				}
			}
			gram := make([]float64, n*n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				linalg.SqDistLowerInto(cols, n, gram)
				for r := 0; r < n; r++ {
					linalg.RBFExp(gram[r*n:r*n+r+1], 2)
				}
			}
		}},
		{"DatasetLoadJSON", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := unroll.LoadDatasetFile(jsonPath); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"GreedyParallel", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := greedy.Select(&nn.Trainer{OneNN: true}, d, 3); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"Label", func(b *testing.B) {
			// The labeler's whole compile stack on a tenth of the corpus:
			// every loop at every factor in both SWP modes, a fresh timer
			// per mode, so every compile misses the cache. The seed is the
			// experiments' label seed (2005 + 100).
			for i := 0; i < b.N; i++ {
				for _, swpOn := range []bool{false, true} {
					cfg := sim.DefaultConfig()
					cfg.SWP = swpOn
					if _, err := core.CollectLabels(lc, sim.NewTimer(cfg), 2105); err != nil {
						b.Fatal(err)
					}
				}
			}
		}},
		{"CompilePipeline", func(b *testing.B) {
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
		}},
		{"MeasureAll", func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < b.N; i++ {
				t := sim.NewTimer(sim.DefaultConfig())
				if _, _, err := t.MeasureAll(l, rng, 1); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"UnrollTransform", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := transform.Unroll(l, 8); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"ListSchedule", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sched.List(analysis.Build(u8, m))
			}
		}},
		{"NNPredict", func(b *testing.B) {
			q := sel.Examples[0].Features
			for i := 0; i < b.N; i++ {
				nnc.Predict(q)
			}
		}},
		{"PredictSingle", func(b *testing.B) {
			q := queries[0]
			for i := 0; i < b.N; i++ {
				if _, err := pred.PredictFeatures(q); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"PredictBatchInterpreted", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, q := range queries {
					if _, err := pred.PredictFeatures(q); err != nil {
						b.Fatal(err)
					}
				}
			}
		}},
		{"PredictBatch", func(b *testing.B) {
			out := make([]int, len(queries))
			for i := 0; i < b.N; i++ {
				var err error
				out, err = comp.PredictFeaturesBatch(queries, out)
				if err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"ServeTracedRequest", func(b *testing.B) {
			h := benchServer(b, pred)
			bodies := make([][]byte, len(queries))
			for i, q := range queries {
				var err error
				if bodies[i], err = json.Marshal(client.PredictRequest{Features: q}); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				post(b, h, "/v1/predict", bodies[i%len(bodies)])
			}
		}},
		// A 32-source batch on the uncached server: every loop is parsed,
		// keyed, feature-extracted and predicted, as in perfbench's serve
		// workload on a cache miss.
		{"ServeSourceBatch", func(b *testing.B) {
			h := benchServer(b, pred)
			loops := make([]client.PredictRequest, 32)
			for k := range loops {
				loops[k].Source = sources[k]
			}
			body, err := json.Marshal(client.BatchRequest{Loops: loops})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				post(b, h, "/v1/predict/batch", body)
			}
		}},
	}, cleanup, nil
}

// benchServer starts an uncached two-worker server over pred, drained when
// the benchmark run ends, and returns its handler.
func benchServer(b *testing.B, pred *unroll.Predictor) http.Handler {
	srv, err := serve.New(serve.Config{
		Model:          pred,
		CacheSize:      -1,
		Workers:        2,
		RequestTimeout: 30 * time.Second,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv.Handler()
}

// post sends body to path through h, failing the benchmark on a non-200.
func post(b *testing.B, h http.Handler, path string, body []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		b.Fatalf("%s: %d %s", path, rec.Code, rec.Body.String())
	}
}

func run(out string) error {
	benches, cleanup, err := suite()
	defer cleanup()
	if err != nil {
		return err
	}
	dump := Dump{GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH}
	for _, bench := range benches {
		fmt.Fprintf(os.Stderr, "running %s...\n", bench.name)
		r := testing.Benchmark(bench.fn)
		dump.Benchmarks = append(dump.Benchmarks, Result{
			Name:        bench.name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		})
		fmt.Fprintf(os.Stderr, "  %s: %.0f ns/op  %d B/op  %d allocs/op\n",
			bench.name, dump.Benchmarks[len(dump.Benchmarks)-1].NsPerOp,
			r.AllocedBytesPerOp(), r.AllocsPerOp())
	}
	data, err := json.MarshalIndent(dump, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if out == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(out, data, 0o644)
}

func load(path string) (map[string]Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d Dump
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	m := make(map[string]Result, len(d.Benchmarks))
	for _, r := range d.Benchmarks {
		m[r.Name] = r
	}
	return m, nil
}

// compare prints per-benchmark deltas of against relative to base and
// returns an error if any gated benchmark slowed down beyond threshold.
func compare(basePath, againstPath, gate string, threshold float64) error {
	base, err := load(basePath)
	if err != nil {
		return err
	}
	against, err := load(againstPath)
	if err != nil {
		return err
	}
	gated := map[string]bool{}
	for _, g := range strings.Split(gate, ",") {
		if g = strings.TrimSpace(g); g != "" {
			gated[g] = true
		}
	}
	var failures []string
	fmt.Printf("%-20s %14s %14s %8s\n", "benchmark", "base ns/op", "new ns/op", "delta")
	for name, b := range base {
		a, ok := against[name]
		if !ok {
			fmt.Printf("%-20s %14.0f %14s\n", name, b.NsPerOp, "(missing)")
			if gated[name] {
				failures = append(failures, fmt.Sprintf("%s missing from %s", name, againstPath))
			}
			continue
		}
		delta := (a.NsPerOp - b.NsPerOp) / b.NsPerOp
		mark := ""
		if gated[name] && delta > threshold {
			mark = "  FAIL"
			failures = append(failures, fmt.Sprintf("%s regressed %.1f%% (limit %.0f%%)", name, delta*100, threshold*100))
		}
		fmt.Printf("%-20s %14.0f %14.0f %+7.1f%%%s\n", name, b.NsPerOp, a.NsPerOp, delta*100, mark)
	}
	if len(failures) > 0 {
		return fmt.Errorf("benchmark gate failed:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}

func main() {
	out := flag.String("out", "BENCH_10.json", "output file for benchmark results ('-' for stdout)")
	comparePath := flag.String("compare", "", "baseline dump to compare -against (skips running benchmarks)")
	againstPath := flag.String("against", "", "candidate dump compared to -compare")
	gate := flag.String("gate", "LOOCVParallel,PredictBatch,ServeTracedRequest,LOOCVColumnar", "comma-separated benchmarks whose regression fails the comparison")
	threshold := flag.Float64("threshold", 0.10, "maximum allowed relative slowdown for gated benchmarks")
	flag.Parse()

	var err error
	if *comparePath != "" {
		if *againstPath == "" {
			err = fmt.Errorf("-compare requires -against")
		} else {
			err = compare(*comparePath, *againstPath, *gate, *threshold)
		}
	} else {
		err = run(*out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdump:", err)
		os.Exit(1)
	}
}
