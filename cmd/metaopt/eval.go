package main

import (
	"flag"
	"fmt"
	"os"

	"metaopt/unroll"
)

func cmdEval(args []string) error {
	fs := flag.NewFlagSet("eval", flag.ExitOnError)
	data := fs.String("data", "", "training dataset (labelgen JSON, CSV-free; columnar .cols detected by magic); empty = generate a small corpus")
	alg := fs.String("alg", "svm", "algorithm: nn, svm, svm-ecoc, smo, regress, tree, boosted-tree")
	seed := fs.Int64("seed", 1, "seed for corpus generation and selection")
	selectFeats := fs.Bool("select", true, "run feature selection before evaluating")
	outOfCore := fs.Bool("outofcore", false, "mmap a columnar -data file and cross-validate without materializing feature rows (nn, svm, svm-ecoc or regress; needs -select=false)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *outOfCore {
		if *data == "" {
			return fmt.Errorf("eval: -outofcore needs a columnar -data file")
		}
		if *selectFeats {
			return fmt.Errorf("eval: -outofcore needs -select=false (feature selection materializes rows)")
		}
	}
	var ds *unroll.Dataset
	if *outOfCore {
		var closeDS func() error
		var err error
		ds, closeDS, err = unroll.OpenDatasetColumnar(*data)
		if err != nil {
			return err
		}
		defer closeDS()
	} else if *data != "" {
		var err error
		ds, err = unroll.LoadDatasetFile(*data)
		if err != nil {
			return err
		}
	} else {
		fmt.Fprintln(os.Stderr, "metaopt: no -data given; generating and labeling a small corpus")
		c, err := unroll.GenerateCorpus(*seed, 0.15)
		if err != nil {
			return err
		}
		ds, err = unroll.CollectDataset(c, unroll.CollectOptions{Seed: *seed, Runs: 10})
		if err != nil {
			return err
		}
	}
	opt := unroll.TrainOptions{Algorithm: unroll.Algorithm(*alg), Seed: *seed}
	if *selectFeats {
		feats, err := unroll.SelectFeatures(ds, *seed)
		if err != nil {
			return err
		}
		opt.Features = feats
	}
	ev, err := unroll.Evaluate(ds, opt)
	if err != nil {
		return err
	}
	fmt.Print(ev.Render())
	return nil
}
