// Package experiments reproduces every table and figure of the paper's
// evaluation: Table 2 (prediction correctness), Tables 3/4 (feature
// selection), Figure 1 (near neighbors on LDA-projected loops), Figure 2
// (SVM classification of projected loops), Figure 3 (optimal-factor
// histogram), Figure 4 (SPEC 2000 speedups, software pipelining disabled)
// and Figure 5 (speedups with software pipelining enabled).
package experiments

import (
	"fmt"

	"metaopt/internal/core"
	"metaopt/internal/loopgen"
	"metaopt/internal/ml"
	"metaopt/internal/obs"
	"metaopt/internal/sim"
)

// Config sizes an experiment run. The default reproduces the full paper
// protocol; tests shrink the corpus and caps.
type Config struct {
	Seed      int64
	Scale     float64 // corpus scale (1.0 = full ~3500-loop corpus)
	Runs      int     // measurement repetitions per timing (paper: 30)
	SVMCap    int     // LOOCV set cap for Table 2's SVM (0 = full corpus)
	TrainCap  int     // SVM training cap per Figure 4/5 fold (0 = no cap)
	SVMSample int     // subsample for greedy-SVM feature selection
}

// DefaultConfig is the full-scale reproduction.
func DefaultConfig() Config {
	return Config{Seed: 2005, Scale: 1, Runs: 30, SVMCap: 0, TrainCap: 1500, SVMSample: 350}
}

// Env lazily builds and caches the shared state the experiments need:
// corpus, the pair of per-mode timers, per-mode labels, the training
// dataset and the selected feature set.
type Env struct {
	Cfg Config

	corpus    *loopgen.Corpus
	timerOff  *sim.Timer
	timerOn   *sim.Timer
	labelsOff *core.Labels
	labelsOn  *core.Labels
	dataset   *ml.Dataset // SWP-off training set (the primary experiment)
	datasetOn *ml.Dataset
	fsel      *core.FeatureSelection
}

// NewEnv returns an empty environment for the configuration.
func NewEnv(cfg Config) *Env {
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	if cfg.Runs <= 0 {
		cfg.Runs = 30
	}
	return &Env{Cfg: cfg}
}

// Corpus generates (once) the 72-benchmark corpus.
func (e *Env) Corpus() (*loopgen.Corpus, error) {
	if e.corpus == nil {
		sp := obs.Begin("env.corpus")
		c, err := loopgen.Generate(loopgen.Options{Seed: e.Cfg.Seed, LoopsScale: e.Cfg.Scale})
		sp.End()
		if err != nil {
			return nil, err
		}
		e.corpus = c
	}
	return e.corpus, nil
}

// Timer returns the cached timer for the pipelining mode. The two modes'
// timers are a pair, so the first labeling compiles the corpus for both.
func (e *Env) Timer(swpOn bool) *sim.Timer {
	if e.timerOff == nil {
		cfg := sim.DefaultConfig()
		cfg.Runs = e.Cfg.Runs
		e.timerOff, e.timerOn = sim.NewTimerPair(cfg)
	}
	if swpOn {
		return e.timerOn
	}
	return e.timerOff
}

// Labels collects (once per mode) the measured labels.
func (e *Env) Labels(swpOn bool) (*core.Labels, error) {
	cached := &e.labelsOff
	if swpOn {
		cached = &e.labelsOn
	}
	if *cached == nil {
		c, err := e.Corpus()
		if err != nil {
			return nil, err
		}
		lb, err := core.CollectLabels(c, e.Timer(swpOn), e.Cfg.Seed+100)
		if err != nil {
			return nil, err
		}
		*cached = lb
	}
	return *cached, nil
}

// Dataset builds (once per mode) the feature-labeled training set.
func (e *Env) Dataset(swpOn bool) (*ml.Dataset, error) {
	cached := &e.dataset
	if swpOn {
		cached = &e.datasetOn
	}
	if *cached == nil {
		lb, err := e.Labels(swpOn)
		if err != nil {
			return nil, err
		}
		sp := obs.Begin("env.dataset")
		d := lb.Dataset(e.Timer(swpOn))
		if err := d.Validate(); err != nil {
			sp.End()
			return nil, fmt.Errorf("experiments: dataset: %w", err)
		}
		// Attach the column-major view once, so every LOOCV and
		// greedy-selection pass in the experiment suite, and every subset
		// Select projects from it, reads it instead of copying the rows.
		d.BuildColumns()
		sp.End()
		*cached = d
	}
	return *cached, nil
}

// Features runs (once) the Section 7 feature selection on the SWP-off
// dataset; its union feeds every classification experiment, as in the
// paper.
func (e *Env) Features() (*core.FeatureSelection, error) {
	if e.fsel == nil {
		d, err := e.Dataset(false)
		if err != nil {
			return nil, err
		}
		sp := obs.Begin("env.features")
		defer sp.End()
		opt := core.DefaultSelectOptions()
		opt.Seed = e.Cfg.Seed
		if e.Cfg.SVMSample > 0 {
			opt.SVMSample = e.Cfg.SVMSample
		}
		fs, err := core.SelectFeatures(d, opt)
		if err != nil {
			return nil, err
		}
		e.fsel = fs
	}
	return e.fsel, nil
}
