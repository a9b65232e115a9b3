package core

import (
	"fmt"
	"math/rand"
	"sort"

	"metaopt/internal/ml"
	"metaopt/internal/ml/greedy"
	"metaopt/internal/ml/mis"
	"metaopt/internal/ml/nn"
	"metaopt/internal/ml/svm"
)

// FeatureSelection reproduces Section 7: mutual-information ranking, greedy
// forward selection under each classifier, and the union the paper actually
// classifies with ("we used the union of the features in Table 3 and
// Table 4 to perform the classification experiments").
type FeatureSelection struct {
	MIS       []mis.Ranked    // all features, descending score (Table 3)
	GreedyNN  []greedy.Result // Table 4, near-neighbor column
	GreedySVM []greedy.Result // Table 4, SVM column
	Union     []int           // the feature set used for classification
}

// SelectOptions bounds the expensive parts of feature selection.
type SelectOptions struct {
	TopK      int // features per method (paper reports 5)
	SVMSample int // greedy-SVM subsample size (LS-SVM LOOCV is cubic)
	Seed      int64
}

// DefaultSelectOptions mirrors the paper's setup.
func DefaultSelectOptions() SelectOptions {
	return SelectOptions{TopK: 5, SVMSample: 350, Seed: 1}
}

// SelectFeatures runs the three feature-selection procedures on a dataset.
func SelectFeatures(d *ml.Dataset, opt SelectOptions) (*FeatureSelection, error) {
	if opt.TopK <= 0 {
		opt.TopK = 5
	}
	fs := &FeatureSelection{MIS: mis.Rank(d, 0)}

	gnn, err := greedy.Select(&nn.Trainer{OneNN: true}, d, opt.TopK)
	if err != nil {
		return nil, fmt.Errorf("core: greedy NN: %w", err)
	}
	fs.GreedyNN = gnn

	svmSet := d
	if opt.SVMSample > 0 && d.Len() > opt.SVMSample {
		svmSet = sample(d, opt.SVMSample, opt.Seed)
	}
	gsvm, err := greedy.Select(&svm.LSSVM{}, svmSet, opt.TopK)
	if err != nil {
		return nil, fmt.Errorf("core: greedy SVM: %w", err)
	}
	fs.GreedySVM = gsvm

	set := map[int]bool{}
	for i := 0; i < opt.TopK && i < len(fs.MIS); i++ {
		set[fs.MIS[i].Feature] = true
	}
	for _, r := range fs.GreedyNN {
		set[r.Feature] = true
	}
	for _, r := range fs.GreedySVM {
		set[r.Feature] = true
	}
	for f := range set {
		fs.Union = append(fs.Union, f)
	}
	sort.Ints(fs.Union)
	return fs, nil
}

// sample draws a deterministic random subset of the dataset.
func sample(d *ml.Dataset, n int, seed int64) *ml.Dataset {
	rng := rand.New(rand.NewSource(seed))
	idx := rng.Perm(d.Len())[:n]
	sort.Ints(idx)
	out := &ml.Dataset{FeatureNames: d.FeatureNames}
	for _, i := range idx {
		out.Examples = append(out.Examples, d.Examples[i])
	}
	return out
}
