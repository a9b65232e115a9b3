package experiments

import (
	"fmt"
	"math"
	"strings"

	"metaopt/internal/core"
	"metaopt/internal/ml"
	"metaopt/internal/ml/lda"
	"metaopt/internal/ml/nn"
	"metaopt/internal/ml/svm"
	"metaopt/internal/par"
	"metaopt/internal/transform"
)

// Figure3Result is the histogram of optimal unroll factors.
type Figure3Result struct {
	Hist  [transform.MaxFactor + 1]float64
	Loops int
}

// Figure3 computes the distribution of optimal factors over the kept
// corpus (SWP disabled).
func Figure3(e *Env) (*Figure3Result, error) {
	lb, err := e.Labels(false)
	if err != nil {
		return nil, err
	}
	return &Figure3Result{Hist: lb.Histogram(), Loops: lb.KeptCount()}, nil
}

// Render draws the histogram as an ASCII bar chart.
func (r *Figure3Result) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 3: histogram of optimal unroll factors (%d loops, SWP disabled)\n", r.Loops)
	for u := 1; u <= transform.MaxFactor; u++ {
		bar := strings.Repeat("#", int(r.Hist[u]*120+0.5))
		fmt.Fprintf(&sb, "  u=%d %5.1f%% %s\n", u, 100*r.Hist[u], bar)
	}
	return sb.String()
}

// margin30 filters the dataset as the figures do: keep examples whose
// chosen factor set contains a clear (≥30%) winner among the given
// classes, relabeled into those classes.
func margin30(d *ml.Dataset, classes []int) *ml.Dataset {
	out := &ml.Dataset{FeatureNames: d.FeatureNames}
	for _, e := range d.Examples {
		best, second := 0, 0
		var bestCyc, secondCyc int64 = math.MaxInt64, math.MaxInt64
		for _, u := range classes {
			c := e.Cycles[u]
			switch {
			case c < bestCyc:
				second, secondCyc = best, bestCyc
				best, bestCyc = u, c
			case c < secondCyc:
				second, secondCyc = u, c
			}
		}
		_ = second
		if bestCyc <= 0 || secondCyc == math.MaxInt64 {
			continue
		}
		if float64(secondCyc)/float64(bestCyc) < 1.30 {
			continue
		}
		ne := e
		ne.Label = best
		out.Examples = append(out.Examples, ne)
	}
	return out
}

// Figure1Result is the near-neighbor illustration: the filtered loops
// projected to the LDA plane, with per-class centroids and the radius-vote
// accuracy in the projected space.
type Figure1Result struct {
	Points    [][2]float64
	Labels    []int
	Centroids map[int][2]float64
	NNAcc     float64 // LOO radius-NN accuracy in the 2-D space
}

// Figure1 projects the four-class (1, 2, 4, 8) ≥30%-margin subset onto the
// LDA plane and runs the near-neighbor classifier there.
func Figure1(e *Env) (*Figure1Result, error) {
	d, err := e.Dataset(false)
	if err != nil {
		return nil, err
	}
	fs, err := e.Features()
	if err != nil {
		return nil, err
	}
	sub := margin30(d.Select(fs.Union), []int{1, 2, 4, 8})
	if sub.Len() < 8 {
		return nil, fmt.Errorf("experiments: figure 1: only %d loops pass the 30%% margin", sub.Len())
	}
	proj, err := lda.Project(sub, 2)
	if err != nil {
		return nil, err
	}
	pts := proj.ApplyAll(sub)

	r := &Figure1Result{Centroids: map[int][2]float64{}}
	counts := map[int]int{}
	for i, e2 := range sub.Examples {
		p := [2]float64{pts[i][0], pts[i][1]}
		r.Points = append(r.Points, p)
		r.Labels = append(r.Labels, e2.Label)
		c := r.Centroids[e2.Label]
		c[0] += p[0]
		c[1] += p[1]
		r.Centroids[e2.Label] = c
		counts[e2.Label]++
	}
	for label, c := range r.Centroids {
		n := float64(counts[label])
		r.Centroids[label] = [2]float64{c[0] / n, c[1] / n}
	}

	// Near-neighbor accuracy on the projected data.
	proj2 := &ml.Dataset{FeatureNames: []string{"lda1", "lda2"}}
	for i := range sub.Examples {
		ne := sub.Examples[i]
		ne.Features = []float64{pts[i][0], pts[i][1]}
		proj2.Examples = append(proj2.Examples, ne)
	}
	preds, err := (&nn.Trainer{}).LOOCV(proj2)
	if err != nil {
		return nil, err
	}
	r.NNAcc = ml.Accuracy(proj2, preds)
	return r, nil
}

// Render draws the projected classes as an ASCII scatter plot.
func (r *Figure1Result) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 1: near neighbors on LDA-projected loops (%d points, classes 1/2/4/8)\n", len(r.Points))
	sb.WriteString(scatter(r.Points, r.Labels, 64, 20))
	for _, u := range []int{1, 2, 4, 8} {
		if c, ok := r.Centroids[u]; ok {
			fmt.Fprintf(&sb, "  class %d centroid: (%+.2f, %+.2f)\n", u, c[0], c[1])
		}
	}
	fmt.Fprintf(&sb, "  radius-NN LOOCV accuracy in the projected plane: %.2f\n", r.NNAcc)
	return sb.String()
}

// Figure2Result is the SVM illustration: a binary (don't unroll vs unroll)
// LS-SVM trained on the 2-D cast of the data, with its decision regions.
type Figure2Result struct {
	Points   [][2]float64
	Unroll   []bool
	Grid     []string // ASCII decision regions ('.' = don't unroll, '#' = unroll)
	Accuracy float64  // training accuracy of the 2-D binary SVM
}

// Figure2 trains a binary RBF LS-SVM on the projected ≥30%-margin data.
func Figure2(e *Env) (*Figure2Result, error) {
	d, err := e.Dataset(false)
	if err != nil {
		return nil, err
	}
	fs, err := e.Features()
	if err != nil {
		return nil, err
	}
	// Binary split: rolled (1) vs unrolled (8 as representative), with a
	// clear margin, as in the paper's illustration.
	sub := margin30(d.Select(fs.Union), []int{1, 8})
	if sub.Len() < 8 {
		return nil, fmt.Errorf("experiments: figure 2: only %d loops pass the 30%% margin", sub.Len())
	}
	proj, err := lda.Project(sub, 2)
	if err != nil {
		return nil, err
	}
	pts := proj.ApplyAll(sub)

	flat := &ml.Dataset{FeatureNames: []string{"lda1", "lda2"}}
	for i := range sub.Examples {
		ne := sub.Examples[i]
		ne.Features = []float64{pts[i][0], pts[i][1]}
		flat.Examples = append(flat.Examples, ne)
	}
	tr := &svm.LSSVM{Codes: svm.OneVsRest(ml.NumClasses)}
	c, err := tr.Train(flat)
	if err != nil {
		return nil, err
	}

	r := &Figure2Result{}
	for i, e2 := range flat.Examples {
		r.Points = append(r.Points, [2]float64{pts[i][0], pts[i][1]})
		r.Unroll = append(r.Unroll, e2.Label != 1)
	}

	// Predict every training point, then every cell of the decision-region
	// grid over the bounding box, across the pool, each into its own slot.
	minX, maxX, minY, maxY := bounds(r.Points)
	const w, h = 64, 20
	n := flat.Len()
	preds := make([]int, n+w*h)
	err = par.ForEach(len(preds), func(i int) error {
		if i < n {
			preds[i] = c.Predict(flat.Examples[i].Features)
			return nil
		}
		row, col := (i-n)/w, (i-n)%w
		y := maxY - (maxY-minY)*float64(row)/float64(h-1)
		x := minX + (maxX-minX)*float64(col)/float64(w-1)
		preds[i] = c.Predict([]float64{x, y})
		return nil
	})
	if err != nil {
		return nil, err
	}
	hits := 0
	for i, e2 := range flat.Examples {
		if preds[i] == e2.Label {
			hits++
		}
	}
	r.Accuracy = float64(hits) / float64(n)
	for cells := preds[n:]; len(cells) > 0; cells = cells[w:] {
		line := make([]byte, w)
		for col, p := range cells[:w] {
			if p != 1 {
				line[col] = '#'
			} else {
				line[col] = '.'
			}
		}
		r.Grid = append(r.Grid, string(line))
	}
	return r, nil
}

// Render draws the decision regions with the training points overlaid.
func (r *Figure2Result) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 2: SVM decision regions on 2-D cast (%d points; '#'=unroll, '.'=don't)\n", len(r.Points))
	minX, maxX, minY, maxY := bounds(r.Points)
	h := len(r.Grid)
	w := 0
	if h > 0 {
		w = len(r.Grid[0])
	}
	grid := make([][]byte, h)
	for i, row := range r.Grid {
		grid[i] = []byte(row)
	}
	for i, p := range r.Points {
		col := int((p[0] - minX) / (maxX - minX + 1e-12) * float64(w-1))
		row := int((maxY - p[1]) / (maxY - minY + 1e-12) * float64(h-1))
		if row >= 0 && row < h && col >= 0 && col < w {
			if r.Unroll[i] {
				grid[row][col] = 'U'
			} else {
				grid[row][col] = 'o'
			}
		}
	}
	for _, row := range grid {
		sb.WriteString("  ")
		sb.Write(row)
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "  ('U' = loop whose best factor is 8, 'o' = best rolled; SVM training accuracy %.2f)\n", r.Accuracy)
	return sb.String()
}

// FigureSpeedupResult covers Figures 4 and 5.
type FigureSpeedupResult struct {
	SWP     bool
	Summary *core.SpeedupSummary
}

// Figure4 measures realized SPEC 2000 speedups with SWP disabled.
func Figure4(e *Env) (*FigureSpeedupResult, error) { return speedupFigure(e, false) }

// Figure5 measures realized SPEC 2000 speedups with SWP enabled.
func Figure5(e *Env) (*FigureSpeedupResult, error) { return speedupFigure(e, true) }

func speedupFigure(e *Env, swpOn bool) (*FigureSpeedupResult, error) {
	c, err := e.Corpus()
	if err != nil {
		return nil, err
	}
	lb, err := e.Labels(swpOn)
	if err != nil {
		return nil, err
	}
	d, err := e.Dataset(swpOn)
	if err != nil {
		return nil, err
	}
	fs, err := e.Features()
	if err != nil {
		return nil, err
	}
	sum, err := core.Speedups(c, lb, d, fs.Union, e.Timer(swpOn), speedupOptions(e.Cfg))
	if err != nil {
		return nil, err
	}
	return &FigureSpeedupResult{SWP: swpOn, Summary: sum}, nil
}

// speedupOptions returns the fold options for cfg: its training cap, where
// 0 means no cap, and a seed derived from its own.
func speedupOptions(cfg Config) core.SpeedupOptions {
	return core.SpeedupOptions{TrainCap: cfg.TrainCap, Seed: cfg.Seed + 31}
}

// Render prints one row per benchmark plus the aggregates.
func (r *FigureSpeedupResult) Render() string {
	var sb strings.Builder
	mode := "disabled"
	figure := 4
	if r.SWP {
		mode = "enabled"
		figure = 5
	}
	fmt.Fprintf(&sb, "Figure %d: SPEC 2000 improvement over the baseline heuristic (SWP %s)\n", figure, mode)
	fmt.Fprintf(&sb, "%-14s %4s %8s %8s %8s\n", "Benchmark", "FP", "NN", "SVM", "Oracle")
	for _, row := range r.Summary.Rows {
		fp := ""
		if row.FP {
			fp = "fp"
		}
		fmt.Fprintf(&sb, "%-14s %4s %+7.1f%% %+7.1f%% %+7.1f%%\n",
			row.Benchmark, fp, 100*row.NN, 100*row.SVM, 100*row.Oracle)
	}
	s := r.Summary
	fmt.Fprintf(&sb, "%-14s %4s %+7.1f%% %+7.1f%% %+7.1f%%\n", "overall", "", 100*s.NNAll, 100*s.SVMAll, 100*s.OracleAll)
	fmt.Fprintf(&sb, "%-14s %4s %+7.1f%% %+7.1f%% %+7.1f%%\n", "SPECfp", "", 100*s.NNFP, 100*s.SVMFP, 100*s.OracleFP)
	fmt.Fprintf(&sb, "wins vs baseline: NN %d/24, SVM %d/24\n", s.NNWins, s.SVMWins)
	return sb.String()
}

// scatter renders labeled 2-D points as an ASCII plot.
func scatter(pts [][2]float64, labels []int, w, h int) string {
	if len(pts) == 0 {
		return ""
	}
	minX, maxX, minY, maxY := bounds(pts)
	grid := make([][]byte, h)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", w))
	}
	glyph := map[int]byte{1: '+', 2: 'o', 4: '*', 8: '@'}
	for i, p := range pts {
		col := int((p[0] - minX) / (maxX - minX + 1e-12) * float64(w-1))
		row := int((maxY - p[1]) / (maxY - minY + 1e-12) * float64(h-1))
		g, ok := glyph[labels[i]]
		if !ok {
			g = '?'
		}
		grid[row][col] = g
	}
	var sb strings.Builder
	for _, row := range grid {
		sb.WriteString("  ")
		sb.Write(row)
		sb.WriteByte('\n')
	}
	sb.WriteString("  ('+'=1, 'o'=2, '*'=4, '@'=8)\n")
	return sb.String()
}

func bounds(pts [][2]float64) (minX, maxX, minY, maxY float64) {
	minX, maxX = math.Inf(1), math.Inf(-1)
	minY, maxY = math.Inf(1), math.Inf(-1)
	for _, p := range pts {
		minX = math.Min(minX, p[0])
		maxX = math.Max(maxX, p[0])
		minY = math.Min(minY, p[1])
		maxY = math.Max(maxY, p[1])
	}
	return minX, maxX, minY, maxY
}
