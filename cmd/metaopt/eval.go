package main

import (
	"flag"
	"fmt"

	"metaopt/unroll"
)

func cmdEval(args []string) error {
	fs := flag.NewFlagSet("eval", flag.ExitOnError)
	data := fs.String("data", "", "training dataset JSON (from labelgen); empty = generate a small corpus")
	alg := fs.String("alg", "svm", "algorithm: nn, svm, svm-ecoc, smo, regress, tree, boosted-tree")
	seed := fs.Int64("seed", 1, "seed for corpus generation and selection")
	selectFeats := fs.Bool("select", true, "run feature selection before evaluating")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ds, err := loadOrCollectDataset(*data, nil, *seed, 0.15, 10)
	if err != nil {
		return err
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
