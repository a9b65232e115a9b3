// Package greedy implements forward greedy feature selection (the paper's
// Section 7.2): starting from the empty set, each round adds the feature
// that minimizes the given classifier's error on the training set, until k
// features have been chosen.
package greedy

import (
	"fmt"

	"metaopt/internal/ml"
	"metaopt/internal/obs"
	"metaopt/internal/par"
)

var (
	mRounds     = obs.C("greedy.rounds")
	mCandidates = obs.C("greedy.candidates_scored")
)

// Result of one selection round.
type Result struct {
	Feature int     // the feature chosen this round
	Error   float64 // classification error with the set so far
}

// Select runs greedy forward selection for k features using the trainer's
// error on the dataset. Trainers with a fast leave-one-out shortcut are
// scored by LOOCV error (the paper's near-neighbor variant searches for the
// single closest *other* point, which is exactly LOO-1NN); others are
// scored by plain training error.
//
// Trainers with a selection session (the near-neighbor classifier) score
// each round in one call. For the others the candidate features of a round
// are scored independently across the shared worker pool, each worker
// projecting into its own reused buffer. The round's winner is the
// lowest-index minimum, exactly what a serial scan picks.
func Select(tr ml.Trainer, d *ml.Dataset, k int) ([]Result, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	dim := d.Dim()
	if k > dim {
		k = dim
	}
	chosen := make([]int, 0, k)
	used := make([]bool, dim)
	var results []Result

	var sess ml.SelectSession
	if ss, ok := tr.(ml.SelectScorer); ok {
		var err error
		if sess, err = ss.BeginSelect(d); err != nil {
			return nil, err
		}
	}
	var subs []ml.Dataset
	var idxBufs [][]int
	if sess == nil {
		workers := par.Workers(dim)
		subs = make([]ml.Dataset, workers)
		idxBufs = make([][]int, workers)
		for w := range idxBufs {
			idxBufs[w] = make([]int, 0, k)
		}
	}
	cand := make([]int, 0, dim)
	scores := make([]float64, dim)

	for round := 0; round < k; round++ {
		sp := obs.Begin("greedy.round")
		cand = cand[:0]
		for f := 0; f < dim; f++ {
			if !used[f] {
				cand = append(cand, f)
			}
		}
		mRounds.Inc()
		mCandidates.Add(int64(len(cand)))
		var err error
		if sess != nil {
			if err = sess.Round(chosen, cand, scores[:len(cand)]); err != nil {
				err = fmt.Errorf("greedy: round %d: %w", round, err)
			}
		} else {
			err = par.ForEachWorker(len(cand), func(w, ci int) error {
				idx := append(append(idxBufs[w][:0], chosen...), cand[ci])
				e, err := errorOf(tr, d.SelectInto(idx, &subs[w]))
				if err != nil {
					return fmt.Errorf("greedy: feature %d: %w", cand[ci], err)
				}
				scores[ci] = e
				return nil
			})
		}
		sp.End()
		if err != nil {
			return nil, err
		}
		bestF, bestErr := -1, 2.0
		for ci, f := range cand {
			if scores[ci] < bestErr {
				bestF, bestErr = f, scores[ci]
			}
		}
		if bestF < 0 {
			break
		}
		if sess != nil {
			if err := sess.Commit(bestF); err != nil {
				return nil, err
			}
		}
		used[bestF] = true
		chosen = append(chosen, bestF)
		results = append(results, Result{Feature: bestF, Error: bestErr})
	}
	return results, nil
}

// Features extracts just the chosen feature indices from results.
func Features(results []Result) []int {
	out := make([]int, len(results))
	for i, r := range results {
		out[i] = r.Feature
	}
	return out
}

func errorOf(tr ml.Trainer, d *ml.Dataset) (float64, error) {
	if fast, ok := tr.(ml.LOOCVer); ok {
		preds, err := fast.LOOCV(d)
		if err != nil {
			return 0, err
		}
		return 1 - ml.Accuracy(d, preds), nil
	}
	c, err := tr.Train(d)
	if err != nil {
		return 0, err
	}
	miss := 0
	for _, e := range d.Examples {
		if c.Predict(e.Features) != e.Label {
			miss++
		}
	}
	return float64(miss) / float64(d.Len()), nil
}
