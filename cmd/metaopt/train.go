package main

import (
	"flag"
	"fmt"
	"os"

	"metaopt/unroll"
)

// loadOrCollectDataset reads a dataset file, or — when path is empty —
// generates and labels a small corpus at the given scale.
func loadOrCollectDataset(path string, m *unroll.Machine, seed int64, scale float64, runs int) (*unroll.Dataset, error) {
	if path != "" {
		return unroll.LoadDatasetFile(path)
	}
	fmt.Fprintln(os.Stderr, "metaopt: no -data given; generating and labeling a small corpus (use cmd/labelgen for the full one)")
	c, err := unroll.GenerateCorpus(seed, scale)
	if err != nil {
		return nil, err
	}
	return unroll.CollectDataset(c, unroll.CollectOptions{Machine: m, Seed: seed, Runs: runs})
}

// cmdTrain fits a predictor once and writes the versioned artifact, so
// that predict and unrolld can serve it without ever retraining.
func cmdTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	data := fs.String("data", "", "training dataset JSON (from labelgen); empty = generate a small corpus")
	out := fs.String("o", "", "artifact output path (required)")
	alg := fs.String("alg", "svm", "algorithm: nn, svm, svm-ecoc, smo, regress, tree, boosted-tree")
	mach := fs.String("mach", "itanium2", "machine model: itanium2, embedded2, wide8")
	seed := fs.Int64("seed", 1, "seed for corpus generation, selection and training")
	selectFeats := fs.Bool("select", true, "run feature selection before training")
	scale := fs.Float64("scale", 0.15, "generated-corpus scale when no -data is given")
	runs := fs.Int("runs", 10, "measurement repetitions when no -data is given")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("train: -o <artifact path> is required")
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("train: unexpected operand %q", fs.Arg(0))
	}
	m, err := machByName(*mach)
	if err != nil {
		return err
	}
	ds, err := loadOrCollectDataset(*data, m, *seed, *scale, *runs)
	if err != nil {
		return err
	}
	opt := unroll.TrainOptions{Algorithm: unroll.Algorithm(*alg), Machine: m, Seed: *seed}
	if *selectFeats {
		feats, err := unroll.SelectFeatures(ds, *seed)
		if err != nil {
			return err
		}
		opt.Features = feats
	}
	p, err := unroll.Train(ds, opt)
	if err != nil {
		return err
	}
	// SaveFile writes atomically and reads the artifact back, so a killed
	// run leaves the previous artifact, never a torn one.
	if err := p.SaveFile(*out); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "trained %s predictor on %d examples -> %s (format v%d, fingerprint %.12s…)\n",
		*alg, ds.Len(), *out, p.Version(), p.Fingerprint())
	return nil
}
