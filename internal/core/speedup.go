package core

import (
	"fmt"
	"math"
	"math/rand"

	"metaopt/internal/features"
	"metaopt/internal/ir"
	"metaopt/internal/loopgen"
	"metaopt/internal/ml"
	"metaopt/internal/ml/nn"
	"metaopt/internal/ml/svm"
	"metaopt/internal/obs"
	"metaopt/internal/par"
	"metaopt/internal/sim"
)

var mSpeedupFolds = obs.C("core.speedup_folds")

// SpeedupRow is one benchmark's outcome in Figure 4 or 5: the relative
// improvement of each method over the baseline heuristic.
type SpeedupRow struct {
	Benchmark string
	FP        bool
	NN        float64 // e.g. +0.05 = 5% faster than the baseline
	SVM       float64
	Oracle    float64
}

// SpeedupSummary aggregates Figure 4/5 outcomes.
type SpeedupSummary struct {
	Rows []SpeedupRow

	// Geometric-mean improvements over the whole suite and the FP subset.
	NNAll, SVMAll, OracleAll float64
	NNFP, SVMFP, OracleFP    float64

	// Wins counts benchmarks where the method beat the baseline.
	NNWins, SVMWins int
}

// SpeedupOptions bounds the experiment.
type SpeedupOptions struct {
	TrainCap int   // cap on SVM training-set size per fold (0 = no cap)
	Seed     int64 // evaluation-noise seed
}

// DefaultSpeedupOptions matches the full experiment with tractable SVM
// retraining per fold.
func DefaultSpeedupOptions() SpeedupOptions {
	return SpeedupOptions{TrainCap: 1500, Seed: 2}
}

// Speedups reproduces the Figure 4/5 protocol: for every SPEC 2000
// benchmark, train the classifiers on the corpus minus that benchmark's
// loops, compile each of its loops with every method's chosen factor, and
// compare whole-program runtimes (loop cycles plus the benchmark's serial
// fraction) against the baseline heuristic. The timer's configuration
// decides whether software pipelining is on (Figure 5) or off (Figure 4).
//
// The leave-one-benchmark-out folds are independent, so they run across
// the shared worker pool against the shared timer; every
// measurement's rng is seeded by (benchmark, method), and rows are written
// in benchmark-list order, so the summary is bit-identical to a serial
// run.
func Speedups(c *loopgen.Corpus, lb *Labels, d *ml.Dataset, featIdx []int,
	t *sim.Timer, opt SpeedupOptions) (*SpeedupSummary, error) {

	sp := obs.Begin("speedups.folds")
	defer sp.End()
	sel := d.Select(featIdx)
	m := t.Cfg.Mach
	base := HeuristicChoice(t.Cfg.SWP, m)
	benches := c.Spec2000()
	rows := make([]SpeedupRow, len(benches))
	mSpeedupFolds.Add(int64(len(benches)))

	err := par.ForEach(len(benches), func(bi int) error {
		b := benches[bi]
		train, _ := sel.WithoutBenchmark(b.Name)
		svmTrain := train
		if opt.TrainCap > 0 && train.Len() > opt.TrainCap {
			svmTrain = sample(train, opt.TrainCap, opt.Seed+int64(hashString(b.Name)))
		}
		nnC, err := (&nn.Trainer{}).Train(train)
		if err != nil {
			return fmt.Errorf("core: %s: NN: %w", b.Name, err)
		}
		svmC, err := (&svm.LSSVM{}).Train(svmTrain)
		if err != nil {
			return fmt.Errorf("core: %s: SVM: %w", b.Name, err)
		}

		// A fold classifies only its own benchmark's loops, each once per
		// classifier: extract each loop's features once for both.
		feats := make(map[*ir.Loop][]float64, len(b.Loops))
		vector := func(l *ir.Loop) []float64 {
			v, ok := feats[l]
			if !ok {
				v = features.Extract(l, m)
				feats[l] = v
			}
			return v
		}

		// Methods are evaluated in a fixed order (the baseline first — the
		// serial fraction is anchored to it) so timing/debug output and any
		// future shared-rng refactor stay deterministic.
		methods := []struct {
			name string
			ch   Choice
		}{
			{"base", base},
			{"nn", ClassifierChoice(nnC, vector, featIdx)},
			{"svm", ClassifierChoice(svmC, vector, featIdx)},
			{"oracle", OracleChoice(lb, base)},
		}
		times := make(map[string]float64, len(methods))
		var serial float64
		for _, mth := range methods {
			rng := rand.New(rand.NewSource(opt.Seed ^ int64(hashString(b.Name+mth.name))))
			var total float64
			for _, l := range b.Loops {
				cyc, err := t.MeasureScaled(l, mth.ch(l), rng, b.NoiseScale)
				if err != nil {
					return fmt.Errorf("core: %s/%s: %w", b.Name, l.Name, err)
				}
				total += float64(cyc)
			}
			if mth.name == "base" {
				// The serial fraction is anchored to the baseline build.
				serial = total * b.SerialFrac / (1 - b.SerialFrac)
			}
			times[mth.name] = total
		}
		row := SpeedupRow{Benchmark: b.Name, FP: b.FP}
		baseTime := times["base"] + serial
		row.NN = baseTime/(times["nn"]+serial) - 1
		row.SVM = baseTime/(times["svm"]+serial) - 1
		row.Oracle = baseTime/(times["oracle"]+serial) - 1
		rows[bi] = row
		return nil
	})
	if err != nil {
		return nil, err
	}

	sum := &SpeedupSummary{Rows: rows}
	gm := newGeoMeans()
	for _, row := range rows {
		if row.NN > 0 {
			sum.NNWins++
		}
		if row.SVM > 0 {
			sum.SVMWins++
		}
		gm.add(row)
	}
	gm.finish(sum)
	return sum, nil
}

type geoMeans struct {
	nAll, nFP               float64
	lnNN, lnSVM, lnOr       float64
	lnNNFP, lnSVMFP, lnOrFP float64
}

func newGeoMeans() *geoMeans { return &geoMeans{} }

func (g *geoMeans) add(r SpeedupRow) {
	g.nAll++
	g.lnNN += ln1p(r.NN)
	g.lnSVM += ln1p(r.SVM)
	g.lnOr += ln1p(r.Oracle)
	if r.FP {
		g.nFP++
		g.lnNNFP += ln1p(r.NN)
		g.lnSVMFP += ln1p(r.SVM)
		g.lnOrFP += ln1p(r.Oracle)
	}
}

func (g *geoMeans) finish(s *SpeedupSummary) {
	if g.nAll > 0 {
		s.NNAll = expm1(g.lnNN / g.nAll)
		s.SVMAll = expm1(g.lnSVM / g.nAll)
		s.OracleAll = expm1(g.lnOr / g.nAll)
	}
	if g.nFP > 0 {
		s.NNFP = expm1(g.lnNNFP / g.nFP)
		s.SVMFP = expm1(g.lnSVMFP / g.nFP)
		s.OracleFP = expm1(g.lnOrFP / g.nFP)
	}
}

func ln1p(x float64) float64  { return math.Log1p(x) }
func expm1(x float64) float64 { return math.Expm1(x) }
