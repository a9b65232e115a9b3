package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"metaopt/internal/core"
	"metaopt/internal/experiments"
	"metaopt/internal/linalg"
	"metaopt/internal/loopgen"
	"metaopt/internal/ml"
	"metaopt/internal/ml/greedy"
	"metaopt/internal/ml/lda"
	"metaopt/internal/ml/mis"
	"metaopt/internal/ml/nn"
	"metaopt/internal/ml/svm"
	"metaopt/internal/sim"
	"metaopt/internal/transform"
)

// pipelineTraced is the traced form of one `experiments -run all`: the
// harness makes, in CLI order, the public calls each experiment makes into
// loopgen, core, sim, features and ml, times each as a span, and renders
// the same sections from the results. The goldens check that this replay
// still matches the CLI.
func pipelineTraced(tr *tracer, op int, cfg experiments.Config, table2N *int) (map[string]string, error) {
	root := tr.begin(op, -1, "harness.pipeline_op", false)
	defer tr.end(root)
	call := func(name string, fn func() error) error { return tr.call(op, root, name, fn) }
	out := map[string]string{}

	var c *loopgen.Corpus
	if err := call("loopgen.generate", func() (err error) {
		c, err = loopgen.Generate(loopgen.Options{Seed: cfg.Seed, LoopsScale: cfg.Scale})
		return err
	}); err != nil {
		return nil, err
	}
	timer := func(swp bool) *sim.Timer {
		sc := sim.DefaultConfig()
		sc.SWP = swp
		sc.Runs = cfg.Runs
		return sim.NewTimer(sc)
	}
	tOff, tOn := timer(false), timer(true)
	labelAndDataset := func(t *sim.Timer, mode string) (*core.Labels, *ml.Dataset, error) {
		var lb *core.Labels
		var d *ml.Dataset
		err := call("sim.label_"+mode, func() (err error) {
			lb, err = core.CollectLabels(c, t, cfg.Seed+100)
			return err
		})
		if err == nil {
			err = call("features.dataset", func() error { d = lb.Dataset(t); return nil })
		}
		if err == nil {
			err = call("ml.columns", func() error {
				if err := d.Validate(); err != nil {
					return err
				}
				d.BuildColumns()
				return nil
			})
		}
		return lb, d, err
	}
	lbOff, dOff, err := labelAndDataset(tOff, "off")
	if err != nil {
		return nil, err
	}

	// core.SelectFeatures, call by call.
	const topK = 5
	fs := &core.FeatureSelection{}
	if err := call("ml.mis", func() error { fs.MIS = mis.Rank(dOff, 0); return nil }); err != nil {
		return nil, err
	}
	if err := call("ml.greedy_nn", func() (err error) {
		fs.GreedyNN, err = greedy.Select(&nn.Trainer{OneNN: true}, dOff, topK)
		return err
	}); err != nil {
		return nil, err
	}
	if err := call("ml.greedy_svm", func() (err error) {
		set := dOff
		if cfg.SVMSample > 0 && dOff.Len() > cfg.SVMSample {
			set = sampleDataset(dOff, cfg.SVMSample, cfg.Seed)
		}
		fs.GreedySVM, err = greedy.Select(&svm.LSSVM{}, set, topK)
		return err
	}); err != nil {
		return nil, err
	}
	fs.Union = featureUnion(fs, topK)

	out["summary"] = (&experiments.SummaryResult{
		Benchmarks: len(c.Benchmarks), Loops: c.TotalLoops(), Examples: dOff.Len(),
		Kept: lbOff.KeptCount(), Labeled: len(lbOff.Order), Union: experiments.UnionNames(fs),
	}).Render()

	var t1 *experiments.Table1Result
	if err := call("features.table1", func() (err error) {
		t1, err = experiments.Table1(experiments.NewEnv(cfg))
		return err
	}); err != nil {
		return nil, err
	}
	out["table1"] = t1.Render()

	f3 := &experiments.Figure3Result{Loops: lbOff.KeptCount()}
	_ = call("core.histogram", func() error { f3.Hist = lbOff.Histogram(); return nil })
	out["figure3"] = f3.Render()

	t3 := &experiments.Table3Result{}
	for i := 0; i < topK && i < len(fs.MIS); i++ {
		t3.Rows = append(t3.Rows, struct {
			Name  string
			Score float64
		}{dOff.FeatureNames[fs.MIS[i].Feature], fs.MIS[i].Score})
	}
	out["table3"] = t3.Render()
	t4 := &experiments.Table4Result{}
	for _, g := range fs.GreedyNN {
		t4.NN = append(t4.NN, struct {
			Name  string
			Error float64
		}{dOff.FeatureNames[g.Feature], g.Error})
	}
	for _, g := range fs.GreedySVM {
		t4.SVM = append(t4.SVM, struct {
			Name  string
			Error float64
		}{dOff.FeatureNames[g.Feature], g.Error})
	}
	out["table4"] = t4.Render()

	tab, err := table2Traced(call, lbOff, dOff, fs.Union, tOff, cfg)
	if err != nil {
		return nil, err
	}
	*table2N = tab.Examples
	if cfg.SVMCap > 0 && tab.Examples > cfg.SVMCap {
		*table2N = cfg.SVMCap
	}
	out["table2"] = (&experiments.Table2Result{Table: tab}).Render()

	f1, err := figure1Traced(call, dOff, fs.Union)
	if err != nil {
		return nil, err
	}
	out["figure1"] = f1.Render()
	f2, err := figure2Traced(call, dOff, fs.Union)
	if err != nil {
		return nil, err
	}
	out["figure2"] = f2.Render()

	opt := core.DefaultSpeedupOptions()
	opt.Seed = cfg.Seed + 31
	if cfg.TrainCap > 0 {
		opt.TrainCap = cfg.TrainCap
	}
	var s4, s5 *core.SpeedupSummary
	if err := call("core.speedups_off", func() (err error) {
		s4, err = core.Speedups(c, lbOff, dOff, fs.Union, tOff, opt)
		return err
	}); err != nil {
		return nil, err
	}
	out["figure4"] = (&experiments.FigureSpeedupResult{SWP: false, Summary: s4}).Render()
	lbOn, dOn, err := labelAndDataset(tOn, "on")
	if err != nil {
		return nil, err
	}
	if err := call("core.speedups_on", func() (err error) {
		s5, err = core.Speedups(c, lbOn, dOn, fs.Union, tOn, opt)
		return err
	}); err != nil {
		return nil, err
	}
	out["figure5"] = (&experiments.FigureSpeedupResult{SWP: true, Summary: s5}).Render()
	return out, nil
}

type callFn func(name string, fn func() error) error

// table2Traced is core.EvaluateTable2, call by call.
func table2Traced(call callFn, lb *core.Labels, d *ml.Dataset, union []int, t *sim.Timer, cfg experiments.Config) (*core.Table2, error) {
	var sel *ml.Dataset
	_ = call("ml.select", func() error { sel = d.Select(union); return nil })
	tab := &core.Table2{Examples: sel.Len()}
	var nnPreds, svmPreds []int
	if err := call("ml.loocv_nn", func() (err error) {
		nnPreds, err = ml.LOOCV(&nn.Trainer{}, sel)
		return err
	}); err != nil {
		return nil, err
	}
	tab.NNFrac, _ = ml.RankTable(sel, nnPreds)
	svmSet := sel
	if cfg.SVMCap > 0 && sel.Len() > cfg.SVMCap {
		svmSet = sampleDataset(sel, cfg.SVMCap, cfg.Seed+7)
	}
	if err := call("ml.loocv_svm", func() (err error) {
		svmPreds, err = ml.LOOCV(&svm.LSSVM{}, svmSet)
		return err
	}); err != nil {
		return nil, err
	}
	tab.SVMFrac, _ = ml.RankTable(svmSet, svmPreds)
	_ = call("core.heuristic", func() error {
		heur := core.HeuristicChoice(t.Cfg.SWP, t.Cfg.Mach)
		var hist [ml.NumClasses]int
		total := 0
		for _, ll := range lb.Order {
			if !ll.Kept {
				continue
			}
			r := rankOf(ll, heur(ll.Loop)) - 1
			if r >= ml.NumClasses {
				r = ml.NumClasses - 1
			}
			hist[r]++
			total++
		}
		for r := range hist {
			if total > 0 {
				tab.HeurFrac[r] = float64(hist[r]) / float64(total)
			}
		}
		return nil
	})
	tab.Cost = ml.CostByRank(sel)
	tab.NNAccuracy, tab.SVMAccuracy, tab.HeurAccuracy = tab.NNFrac[0], tab.SVMFrac[0], tab.HeurFrac[0]
	return tab, nil
}

// projected casts the ≥30%-margin subset onto the LDA plane.
func projected(call callFn, d *ml.Dataset, union, classes []int, figure string) (*ml.Dataset, [][]float64, error) {
	var sub *ml.Dataset
	_ = call("ml.select", func() error { sub = margin30(d.Select(union), classes); return nil })
	if sub.Len() < 8 {
		return nil, nil, fmt.Errorf("%s: only %d loops pass the 30%% margin", figure, sub.Len())
	}
	var pts [][]float64
	err := call("ml.lda", func() error {
		proj, err := lda.Project(sub, 2)
		if err != nil {
			return err
		}
		pts = proj.ApplyAll(sub)
		return nil
	})
	return sub, pts, err
}

// flatten replaces each example's features with its 2-D projection.
func flatten(sub *ml.Dataset, pts [][]float64) *ml.Dataset {
	flat := &ml.Dataset{FeatureNames: []string{"lda1", "lda2"}}
	for i := range sub.Examples {
		ne := sub.Examples[i]
		ne.Features = []float64{pts[i][0], pts[i][1]}
		flat.Examples = append(flat.Examples, ne)
	}
	return flat
}

// figure1Traced is experiments.Figure1, call by call.
func figure1Traced(call callFn, d *ml.Dataset, union []int) (*experiments.Figure1Result, error) {
	sub, pts, err := projected(call, d, union, []int{1, 2, 4, 8}, "figure1")
	if err != nil {
		return nil, err
	}
	r := &experiments.Figure1Result{Centroids: map[int][2]float64{}}
	counts := map[int]int{}
	for i, e := range sub.Examples {
		p := [2]float64{pts[i][0], pts[i][1]}
		r.Points = append(r.Points, p)
		r.Labels = append(r.Labels, e.Label)
		c := r.Centroids[e.Label]
		c[0] += p[0]
		c[1] += p[1]
		r.Centroids[e.Label] = c
		counts[e.Label]++
	}
	for label, c := range r.Centroids {
		n := float64(counts[label])
		r.Centroids[label] = [2]float64{c[0] / n, c[1] / n}
	}
	flat := flatten(sub, pts)
	err = call("ml.fig1_nn", func() error {
		preds, err := (&nn.Trainer{}).LOOCV(flat)
		if err != nil {
			return err
		}
		r.NNAcc = ml.Accuracy(flat, preds)
		return nil
	})
	return r, err
}

// figure2Traced is experiments.Figure2, call by call.
func figure2Traced(call callFn, d *ml.Dataset, union []int) (*experiments.Figure2Result, error) {
	sub, pts, err := projected(call, d, union, []int{1, 8}, "figure2")
	if err != nil {
		return nil, err
	}
	flat := flatten(sub, pts)
	var c ml.Classifier
	if err := call("ml.fig2_train", func() (err error) {
		c, err = (&svm.LSSVM{Codes: svm.OneVsRest(ml.NumClasses)}).Train(flat)
		return err
	}); err != nil {
		return nil, err
	}
	r := &experiments.Figure2Result{}
	_ = call("ml.fig2_predict", func() error {
		hits := 0
		for i, e := range flat.Examples {
			r.Points = append(r.Points, [2]float64{pts[i][0], pts[i][1]})
			r.Unroll = append(r.Unroll, e.Label != 1)
			if c.Predict(e.Features) == e.Label {
				hits++
			}
		}
		r.Accuracy = float64(hits) / float64(flat.Len())
		minX, maxX, minY, maxY := bounds(r.Points)
		const w, h = 64, 20
		for row := 0; row < h; row++ {
			line := make([]byte, w)
			y := maxY - (maxY-minY)*float64(row)/float64(h-1)
			for col := 0; col < w; col++ {
				x := minX + (maxX-minX)*float64(col)/float64(w-1)
				line[col] = '.'
				if c.Predict([]float64{x, y}) != 1 {
					line[col] = '#'
				}
			}
			r.Grid = append(r.Grid, string(line))
		}
		return nil
	})
	return r, nil
}

// The helpers below restate unexported steps of core and experiments.

func sampleDataset(d *ml.Dataset, n int, seed int64) *ml.Dataset {
	rng := rand.New(rand.NewSource(seed))
	idx := rng.Perm(d.Len())[:n]
	sort.Ints(idx)
	out := &ml.Dataset{FeatureNames: d.FeatureNames}
	for _, i := range idx {
		out.Examples = append(out.Examples, d.Examples[i])
	}
	return out
}

func featureUnion(fs *core.FeatureSelection, topK int) []int {
	set := map[int]bool{}
	for i := 0; i < topK && i < len(fs.MIS); i++ {
		set[fs.MIS[i].Feature] = true
	}
	for _, r := range fs.GreedyNN {
		set[r.Feature] = true
	}
	for _, r := range fs.GreedySVM {
		set[r.Feature] = true
	}
	union := make([]int, 0, len(set))
	for f := range set {
		union = append(union, f)
	}
	sort.Ints(union)
	return union
}

func rankOf(ll *core.LoopLabel, pred int) int {
	if pred < 1 || pred > transform.MaxFactor {
		return transform.MaxFactor
	}
	rank := 1
	for u := 1; u <= transform.MaxFactor; u++ {
		if ll.Cycles[u] < ll.Cycles[pred] {
			rank++
		}
	}
	return rank
}

func margin30(d *ml.Dataset, classes []int) *ml.Dataset {
	out := &ml.Dataset{FeatureNames: d.FeatureNames}
	for _, e := range d.Examples {
		var bestCyc, secondCyc int64 = math.MaxInt64, math.MaxInt64
		best := 0
		for _, u := range classes {
			c := e.Cycles[u]
			switch {
			case c < bestCyc:
				secondCyc = bestCyc
				best, bestCyc = u, c
			case c < secondCyc:
				secondCyc = c
			}
		}
		if bestCyc <= 0 || secondCyc == math.MaxInt64 || float64(secondCyc)/float64(bestCyc) < 1.30 {
			continue
		}
		ne := e
		ne.Label = best
		out.Examples = append(out.Examples, ne)
	}
	return out
}

func bounds(pts [][2]float64) (minX, maxX, minY, maxY float64) {
	minX, maxX = math.Inf(1), math.Inf(-1)
	minY, maxY = math.Inf(1), math.Inf(-1)
	for _, p := range pts {
		minX, maxX = math.Min(minX, p[0]), math.Max(maxX, p[0])
		minY, maxY = math.Min(minY, p[1]), math.Max(maxY, p[1])
	}
	return minX, maxX, minY, maxY
}

// pipelinePhases are the traced calls whose time and CPU use the traced
// run reports; metric <phase>_ms sums every span of that name in an op.
var pipelinePhases = []string{
	"ml.loocv_svm", "ml.loocv_nn", "core.speedups_off", "core.speedups_on",
	"ml.mis", "ml.greedy_nn", "ml.greedy_svm", "ml.lda", "ml.fig2_train",
	"loopgen.generate", "sim.label_off", "sim.label_on", "features.dataset",
}

// pipelineUtilPhases also report <phase>.cpu_util.
var pipelineUtilPhases = map[string]bool{
	"ml.loocv_svm": true, "ml.loocv_nn": true, "core.speedups_off": true, "core.speedups_on": true,
	"ml.mis": true, "ml.greedy_nn": true, "ml.greedy_svm": true, "ml.lda": true, "ml.fig2_train": true,
}

// pipelineTraceReport turns the traced ops' spans into per-layer metrics,
// then times the Cholesky factorizations behind Table 2 and the fold
// trains on SPD matrices of the same orders.
func pipelineTraceReport(o *options, tr *tracer, r *report, cfg experiments.Config, table2N int) error {
	spans := tr.snapshot()
	procs := float64(runtime.GOMAXPROCS(0))
	type agg struct{ wall, cpu time.Duration }
	perOp := map[int]map[string]*agg{}
	spansPerOp := map[int]int{}
	for i := range spans {
		s := &spans[i]
		if s.Op < 0 {
			continue
		}
		spansPerOp[s.Op]++
		m := perOp[s.Op]
		if m == nil {
			m = map[string]*agg{}
			perOp[s.Op] = m
		}
		a := m[s.Name]
		if a == nil {
			a = &agg{}
			m[s.Name] = a
		}
		a.wall += s.dur()
		a.cpu += time.Duration(s.CPU)
	}
	for _, ph := range pipelinePhases {
		var wall, util []float64
		for _, m := range perOp {
			if a := m[ph]; a != nil {
				wall = append(wall, ms(a.wall))
				util = append(util, a.cpu.Seconds()/(a.wall.Seconds()*procs))
			}
		}
		if len(wall) == 0 {
			continue
		}
		r.set(ph+"_ms", median(wall), "ms", len(wall), "median per traced op")
		if pipelineUtilPhases[ph] {
			r.set(ph+".cpu_util", median(util), "1", len(util), "process CPU / (wall × GOMAXPROCS)")
		}
	}
	reportBreakdowns(r, breakdowns(spans, "harness.pipeline_op"), selfLayers)
	counts := make([]float64, 0, len(spansPerOp))
	for _, n := range spansPerOp {
		counts = append(counts, float64(n))
	}
	cost := spanCost()
	r.set("trace.overhead_ms", median(counts)*ms(cost), "ms", len(counts),
		"spans per op × measured span cost; an untraced op does not fit in the same run")

	// Table 2 factors its whole LOOCV set; each fold train factors at
	// most TrainCap rows.
	for _, probe := range []struct {
		name string
		n    int
	}{{"table2", table2N}, {"fold", cfg.TrainCap}} {
		if probe.n <= 0 {
			continue
		}
		wall, cpu, err := choleskyProbe(tr, probe.name, probe.n, o.seed)
		if err != nil {
			return err
		}
		r.set("linalg.cholesky_ms."+probe.name, ms(wall), "ms", 1, fmt.Sprintf("linalg.NewCholesky, n=%d", probe.n))
		nf := float64(probe.n)
		r.set("linalg.cholesky_gflops."+probe.name, nf*nf*nf/3/wall.Seconds()/1e9, "GFLOP/s", 1, "n³/3 over the measured time")
		r.set("linalg.cholesky."+probe.name+".cpu_util", cpu.Seconds()/(wall.Seconds()*procs), "1", 1, "process CPU / (wall × GOMAXPROCS)")
	}
	return o.writeSpans(tr, r)
}

// choleskyProbe factors a seeded, diagonally dominant (hence SPD) matrix
// of order n: the cost of linalg.NewCholesky depends on n alone.
func choleskyProbe(tr *tracer, name string, n int, seed int64) (wall, cpu time.Duration, err error) {
	a := linalg.NewMatrix(n, n)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			v := rng.Float64()
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
		a.Set(i, i, float64(n))
	}
	runtime.GC()
	id := tr.begin(-1, -1, "linalg.cholesky_"+name, true)
	start, cpu0 := time.Now(), processCPU()
	_, err = linalg.NewCholesky(a)
	wall, cpu = time.Since(start), processCPU()-cpu0
	tr.end(id)
	if err != nil {
		return 0, 0, fmt.Errorf("cholesky probe n=%d: %w", n, err)
	}
	return wall, cpu, nil
}

// spanCost measures one begin/end pair with its CPU samples.
func spanCost() time.Duration {
	t := newTracer()
	const n = 2000
	start := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin(0, -1, "x.y", true))
	}
	return time.Since(start) / n
}
