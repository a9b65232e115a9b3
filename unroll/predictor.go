package unroll

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"metaopt/internal/core"
	"metaopt/internal/ml"
	"metaopt/internal/ml/nn"
	"metaopt/internal/ml/svm"
	"metaopt/internal/ml/tree"
	"metaopt/internal/obs"
	"metaopt/internal/sim"
)

// Algorithm selects the learning algorithm for Train.
type Algorithm string

// Available algorithms.
const (
	// NearNeighbor is the paper's radius-0.3 voting classifier.
	NearNeighbor Algorithm = "nn"
	// LSSVM is the paper's least-squares SVM with one-vs-rest output codes.
	LSSVM Algorithm = "svm"
	// LSSVMECOC uses random error-correcting output codes (15 bits).
	LSSVMECOC Algorithm = "svm-ecoc"
	// SMOSVM is a soft-margin C-SVM trained by SMO.
	SMOSVM Algorithm = "smo"
	// Regress predicts the factor by kernel ridge regression and rounds.
	Regress Algorithm = "regress"
	// DecisionTree is a single CART tree.
	DecisionTree Algorithm = "tree"
	// BoostedTree is AdaBoost.SAMME over shallow CART trees — the learner
	// of the paper's closest prior work (Monsifrot et al.).
	BoostedTree Algorithm = "boosted-tree"
)

// trainerFor builds the ml.Trainer for an algorithm.
func trainerFor(opt TrainOptions) (ml.Trainer, error) {
	switch opt.Algorithm {
	case "", NearNeighbor:
		return &nn.Trainer{Radius: opt.Radius}, nil
	case LSSVM:
		return &svm.LSSVM{Gamma: opt.Gamma}, nil
	case LSSVMECOC:
		return &svm.LSSVM{Gamma: opt.Gamma, Codes: svm.Random(ml.NumClasses, 15, opt.Seed+1)}, nil
	case SMOSVM:
		return &svm.SMO{Seed: opt.Seed}, nil
	case Regress:
		return &svm.Regression{Gamma: opt.Gamma}, nil
	case DecisionTree:
		return &tree.Trainer{}, nil
	case BoostedTree:
		return &tree.Boost{}, nil
	}
	return nil, fmt.Errorf("unroll: unknown algorithm %q", opt.Algorithm)
}

// Dataset is a labeled training set of loop examples.
type Dataset struct {
	d *ml.Dataset
}

// Len returns the number of examples.
func (d *Dataset) Len() int { return d.d.Len() }

// Labels returns the label of every example.
func (d *Dataset) Labels() []int {
	out := make([]int, d.d.Len())
	for i, e := range d.d.Examples {
		out[i] = e.Label
	}
	return out
}

// CollectOptions controls dataset collection from a corpus.
type CollectOptions struct {
	Machine *Machine // nil = Itanium 2
	SWP     bool     // label with software pipelining enabled
	Seed    int64
	Runs    int // measurement repetitions (0 = paper's 30)
}

// CollectDataset measures every loop in the corpus at every unroll factor
// and returns the filtered training set (loops above the instrumentation
// floor whose unrolling choice measurably matters), exactly as the paper
// collected its 2,500 examples.
func CollectDataset(c *Corpus, opt CollectOptions) (*Dataset, error) {
	t := timerFor(opt)
	lb, err := core.CollectLabels(c, t, opt.Seed)
	if err != nil {
		return nil, err
	}
	return &Dataset{d: lb.Dataset(t)}, nil
}

// timerFor builds the measurement timer a CollectOptions describes.
func timerFor(opt CollectOptions) *sim.Timer {
	cfg := sim.DefaultConfig()
	if opt.Machine != nil {
		cfg.Mach = opt.Machine
	}
	cfg.SWP = opt.SWP
	if opt.Runs > 0 {
		cfg.Runs = opt.Runs
	}
	return sim.NewTimer(cfg)
}

// SelectFeatures runs the paper's Section 7 pipeline (mutual information
// plus greedy selection under both classifiers) and returns the union
// feature set used for classification.
func SelectFeatures(d *Dataset, seed int64) ([]int, error) {
	opt := core.DefaultSelectOptions()
	opt.Seed = seed
	fs, err := core.SelectFeatures(d.d, opt)
	if err != nil {
		return nil, err
	}
	return fs.Union, nil
}

// TrainOptions configures Train.
type TrainOptions struct {
	Algorithm Algorithm // default NearNeighbor
	Machine   *Machine  // nil = Itanium 2
	Features  []int     // feature subset; nil = all 38
	Radius    float64   // NearNeighbor only; 0 = the paper's 0.3
	Gamma     float64   // LS-SVM regularization; 0 = default
	Seed      int64
}

// Predictor maps loops to unroll factors.
type Predictor struct {
	c           ml.Classifier
	mach        *Machine
	feats       []int
	version     int    // persist format version the predictor carries
	fingerprint string // content hash of the serialized model
}

// Train fits a predictor on a dataset.
func Train(d *Dataset, opt TrainOptions) (*Predictor, error) {
	m := opt.Machine
	if m == nil {
		m = Itanium2()
	}
	set := d.d
	if opt.Features != nil {
		set = set.Select(opt.Features)
	}
	tr, err := trainerFor(opt)
	if err != nil {
		return nil, err
	}
	c, err := tr.Train(set)
	if err != nil {
		return nil, err
	}
	p := &Predictor{c: c, mach: m, feats: opt.Features, version: PersistVersion}
	if fp, err := p.computeFingerprint(); err == nil {
		p.fingerprint = fp
	}
	return p, nil
}

// TrainDefault trains the paper's best configuration: an LS-SVM on the
// selected feature union.
func TrainDefault(d *Dataset) (*Predictor, error) {
	feats, err := SelectFeatures(d, 1)
	if err != nil {
		return nil, err
	}
	return Train(d, TrainOptions{Algorithm: LSSVM, Features: feats})
}

// ErrNilLoop is returned by the predicting methods for a nil loop.
var ErrNilLoop = errors.New("unroll: nil loop")

// predictFallbacks counts legacy Predict calls that hit the error path and
// fell back to factor 1.
var predictFallbacks = obs.C("unroll.predict.fallback")

// nonFiniteRejects counts feature vectors refused at the PredictFeatures
// boundary because they carried NaN or ±Inf — values that would silently
// poison every distance computation downstream.
var nonFiniteRejects = obs.C("unroll.predict.nonfinite")

// Version reports the persist-format version the predictor carries:
// PersistVersion for freshly trained predictors, the artifact's recorded
// version for loaded ones (0 for legacy unversioned blobs).
func (p *Predictor) Version() int { return p.version }

// Fingerprint is a stable content hash of the serialized model, machine,
// and feature subset — the predictor's identity for artifact tracking,
// cache keying, and serving. It survives a Save/LoadPredictor round trip.
func (p *Predictor) Fingerprint() string { return p.fingerprint }

// Algorithm reports the algorithm tag the predictor would be saved under
// ("" if the classifier is not serializable).
func (p *Predictor) Algorithm() Algorithm {
	alg, err := savedAlgorithm(p.c)
	if err != nil {
		return ""
	}
	return alg
}

// PredictCtx returns the chosen unroll factor for a loop. Unlike the
// legacy Predict it reports failures — a nil or structurally invalid loop,
// a predictor whose feature subset does not fit the extracted vector, or a
// done context — instead of silently falling back.
func (p *Predictor) PredictCtx(ctx context.Context, l *Loop) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	v, err := p.featuresOf(l)
	if err != nil {
		return 0, err
	}
	return p.predictVector(v), nil
}

// PredictFeatures predicts from a pre-extracted feature vector: either the
// full NumFeatures-element vector (projected onto the predictor's subset)
// or a vector already projected to the subset's length. Non-finite values
// (NaN, ±Inf) are rejected here, before they can flow into a classifier's
// distance or kernel computations and corrupt every comparison.
func (p *Predictor) PredictFeatures(v []float64) (int, error) {
	for i, f := range v {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			nonFiniteRejects.Inc()
			return 0, fmt.Errorf("unroll: feature %d is not finite (%v)", i, f)
		}
	}
	if p.feats != nil && len(v) == len(p.feats) {
		return p.predictVector(v), nil
	}
	if len(v) == NumFeatures {
		pv, err := p.projectChecked(v)
		if err != nil {
			return 0, err
		}
		return p.predictVector(pv), nil
	}
	want := fmt.Sprintf("%d", NumFeatures)
	if p.feats != nil {
		want = fmt.Sprintf("%d or %d", NumFeatures, len(p.feats))
	}
	return 0, fmt.Errorf("unroll: feature vector has %d elements, want %s", len(v), want)
}

// Predict returns the chosen unroll factor for a loop.
//
// This is the legacy error-free interface: on any failure PredictCtx would
// report (nil or invalid loop, corrupt feature subset) it falls back to
// factor 1 — the identity choice — and counts the event on the
// "unroll.predict.fallback" telemetry counter. New code should call
// PredictCtx and handle the error.
func (p *Predictor) Predict(l *Loop) int {
	u, err := p.PredictCtx(context.Background(), l)
	if err != nil {
		predictFallbacks.Inc()
		return 1
	}
	return u
}

// featuresOf validates a loop and extracts its (projected) feature vector.
func (p *Predictor) featuresOf(l *Loop) ([]float64, error) {
	if l == nil {
		return nil, ErrNilLoop
	}
	if err := l.Validate(); err != nil {
		return nil, fmt.Errorf("unroll: invalid loop %q: %w", l.Name, err)
	}
	return p.projectChecked(Features(l, p.mach))
}

// predictVector runs the classifier and clamps its answer to [1,MaxFactor].
func (p *Predictor) predictVector(v []float64) int {
	return clampFactor(p.c.Predict(v))
}

// Confidence reports the voting-neighborhood evidence behind a prediction
// (near-neighbor predictors only): how many training loops vote and how
// strongly they agree. The paper proposes exactly this signal for outlier
// detection. ok is false for non-NN predictors.
func (p *Predictor) Confidence(l *Loop) (neighbors int, agreement float64, ok bool) {
	c, isNN := p.c.(*nn.Classifier)
	if !isNN {
		return 0, 0, false
	}
	n, a := c.Confidence(p.project(Features(l, p.mach)))
	return n, a, true
}

// CrossValidate runs leave-one-out cross-validation of an algorithm on a
// dataset and returns the fraction of optimal predictions.
func CrossValidate(d *Dataset, opt TrainOptions) (accuracy float64, err error) {
	set := d.d
	if opt.Features != nil {
		set = set.Select(opt.Features)
	}
	tr, err := trainerFor(opt)
	if err != nil {
		return 0, err
	}
	preds, err := ml.LOOCV(tr, set)
	if err != nil {
		return 0, err
	}
	return ml.Accuracy(set, preds), nil
}

// jsonExample is the serialized form of one training example — the "raw
// loop data" release format.
type jsonExample struct {
	Name      string    `json:"name"`
	Benchmark string    `json:"benchmark"`
	Features  []float64 `json:"features"`
	Label     int       `json:"label"`
	Cycles    []int64   `json:"cycles"`
}

type jsonDataset struct {
	FeatureNames []string      `json:"feature_names"`
	Examples     []jsonExample `json:"examples"`
}

// Save writes the dataset as JSON, streaming one example at a time through
// a buffered writer: peak memory is one encoded example, not the whole
// corpus, so saving a 100× dataset costs the same RSS as a 1× one. The
// layout is deterministic and LoadDataset-compatible.
func (d *Dataset) Save(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	names, err := json.Marshal(d.d.FeatureNames)
	if err != nil {
		return err
	}
	// bufio retains the first underlying write error and reports it from
	// Flush, so only the per-example encodes need individual checks.
	bw.WriteString("{\n \"feature_names\": ")
	bw.Write(names)
	bw.WriteString(",\n \"examples\": [")
	for i := range d.d.Examples {
		e := &d.d.Examples[i]
		if i > 0 {
			bw.WriteByte(',')
		}
		bw.WriteString("\n  ")
		b, err := json.Marshal(jsonExample{
			Name:      e.Name,
			Benchmark: e.Benchmark,
			Features:  e.Features,
			Label:     e.Label,
			Cycles:    e.Cycles[1:],
		})
		if err != nil {
			return err
		}
		bw.Write(b)
	}
	bw.WriteString("\n ]\n}\n")
	return bw.Flush()
}

// LoadDataset reads a dataset saved by Save. Every example must carry one
// positive measured cycle count per unroll factor, and its label must be
// the factor those cycles make best.
func LoadDataset(r io.Reader) (*Dataset, error) {
	var in jsonDataset
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("unroll: load dataset: %w", err)
	}
	d := &ml.Dataset{FeatureNames: in.FeatureNames}
	for i, je := range in.Examples {
		bad := func(format string, args ...any) error {
			return fmt.Errorf("unroll: load dataset: example %d (%s/%s) "+format,
				append([]any{i, je.Benchmark, je.Name}, args...)...)
		}
		if len(je.Cycles) != ml.NumClasses {
			return nil, bad("has %d cycle counts, want %d", len(je.Cycles), ml.NumClasses)
		}
		e := ml.Example{
			Name:      je.Name,
			Benchmark: je.Benchmark,
			Features:  je.Features,
			Label:     je.Label,
		}
		copy(e.Cycles[1:], je.Cycles)
		for u, c := range je.Cycles {
			if c <= 0 {
				return nil, bad("has %d cycles at unroll factor %d, want a positive count", c, u+1)
			}
		}
		if best := core.BestFactor(e.Cycles); e.Label != best {
			return nil, bad("is labeled %d, but its cycles make %d the best factor", e.Label, best)
		}
		d.Examples = append(d.Examples, e)
	}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("unroll: load dataset: %w", err)
	}
	return &Dataset{d: d}, nil
}

// LoadDatasetFile loads a dataset that Save wrote to path.
func LoadDatasetFile(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("unroll: load dataset: %w", err)
	}
	defer f.Close()
	return LoadDataset(f)
}

// Evaluation is a Table-2-style report for one algorithm on one dataset:
// where its leave-one-out predictions rank in the measured ordering, the
// misprediction cost, and the full confusion matrix.
type Evaluation struct {
	Algorithm Algorithm
	Examples  int
	// RankFrac[r] is the fraction of predictions whose factor was the
	// (r+1)-th best measured choice; RankFrac[0] is the optimal fraction.
	RankFrac [8]float64
	// CostByRank[r] is the mean runtime penalty of a rank-(r+1) choice.
	CostByRank [8]float64
	Confusion  *ml.Confusion
}

// Accuracy is the optimal-prediction fraction.
func (e *Evaluation) Accuracy() float64 { return e.RankFrac[0] }

// Evaluate cross-validates an algorithm on the dataset (leave-one-out) and
// assembles the evaluation report.
func Evaluate(d *Dataset, opt TrainOptions) (*Evaluation, error) {
	set := d.d
	if opt.Features != nil {
		set = set.Select(opt.Features)
	}
	tr, err := trainerFor(opt)
	if err != nil {
		return nil, err
	}
	preds, err := ml.LOOCV(tr, set)
	if err != nil {
		return nil, err
	}
	ev := &Evaluation{Algorithm: opt.Algorithm, Examples: set.Len()}
	ev.RankFrac, _ = ml.RankTable(set, preds)
	ev.CostByRank = ml.CostByRank(set)
	ev.Confusion = ml.NewConfusion(set, preds)
	return ev, nil
}

// Render formats the report for terminal output.
func (e *Evaluation) Render() string {
	var sb strings.Builder
	alg := e.Algorithm
	if alg == "" {
		alg = NearNeighbor
	}
	fmt.Fprintf(&sb, "evaluation of %s on %d loops (leave-one-out)\n", alg, e.Examples)
	fmt.Fprintf(&sb, "%-14s %8s %8s\n", "rank", "fraction", "cost")
	for r := 0; r < len(e.RankFrac); r++ {
		fmt.Fprintf(&sb, "%-14s %8.2f %7.2fx\n", rankName(r), e.RankFrac[r], e.CostByRank[r])
	}
	sb.WriteString(e.Confusion.String())
	return sb.String()
}

func rankName(r int) string {
	names := [...]string{"optimal", "second-best", "third-best", "fourth-best",
		"fifth-best", "sixth-best", "seventh-best", "worst"}
	if r >= 0 && r < len(names) {
		return names[r]
	}
	return fmt.Sprintf("rank-%d", r+1)
}
