package main

import (
	"flag"
	"fmt"
	"os"

	"metaopt/unroll"
)

// obtainPredictor loads a saved artifact (the path that never retrains),
// or, without one, labels a small fresh corpus and trains.
func obtainPredictor(modelPath string, alg unroll.Algorithm, m *unroll.Machine, seed int64) (*unroll.Predictor, error) {
	if modelPath != "" {
		f, err := os.Open(modelPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return unroll.LoadPredictor(f)
	}
	ds, err := loadOrCollectDataset("", m, seed, 0.15, 10)
	if err != nil {
		return nil, err
	}
	feats, err := unroll.SelectFeatures(ds, seed)
	if err != nil {
		return nil, err
	}
	return unroll.Train(ds, unroll.TrainOptions{
		Algorithm: alg, Machine: m, Features: feats, Seed: seed,
	})
}

func cmdExplain(args []string) error {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	model := fs.String("model", "", "trained predictor JSON (must be near-neighbor); empty = train on a small generated corpus")
	mach := fs.String("mach", "itanium2", "machine model")
	k := fs.Int("k", 5, "how many nearest neighbors to show")
	seed := fs.Int64("seed", 1, "seed for corpus generation and training")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("explain: want one input file")
	}
	m, err := machByName(*mach)
	if err != nil {
		return err
	}
	p, err := obtainPredictor(*model, unroll.NearNeighbor, m, *seed)
	if err != nil {
		return err
	}
	loops, err := loadLoops(fs.Arg(0))
	if err != nil {
		return err
	}
	for _, l := range loops {
		ex, err := p.Explain(l, *k)
		if err != nil {
			return err
		}
		fmt.Printf("loop %s:\n%s\n", l.Name, ex.Render())
	}
	return nil
}
