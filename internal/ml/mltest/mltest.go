// Package mltest provides synthetic datasets for testing the learning
// algorithms: Gaussian class clusters with controllable separation, plus
// consistent cycle vectors so rank/cost metrics are exercised.
package mltest

import (
	"fmt"
	"math/rand"

	"metaopt/internal/ml"
)

// Clusters generates n examples over the given number of classes: class c
// is a Gaussian blob centered at a distinct corner pattern, with the given
// noise level. Cycle vectors are synthesized so that the label is the
// cheapest unroll factor.
func Clusters(n, dim, classes int, noise float64, seed int64) *ml.Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &ml.Dataset{}
	for j := 0; j < dim; j++ {
		d.FeatureNames = append(d.FeatureNames, fmt.Sprintf("f%d", j))
	}
	for i := 0; i < n; i++ {
		label := 1 + i%classes
		f := make([]float64, dim)
		for j := range f {
			center := float64((label * (j + 1)) % classes)
			f[j] = center + noise*rng.NormFloat64()
		}
		e := ml.Example{
			Name:      fmt.Sprintf("loop%d", i),
			Benchmark: fmt.Sprintf("bench%d", i%6),
			Features:  f,
			Label:     label,
		}
		for u := 1; u <= ml.NumClasses; u++ {
			gap := u - label
			if gap < 0 {
				gap = -gap
			}
			e.Cycles[u] = int64(100_000 + 8_000*gap + rng.Intn(500))
		}
		d.Examples = append(d.Examples, e)
	}
	return d
}

// NoisyLabels flips a fraction of the labels to a random other class.
func NoisyLabels(d *ml.Dataset, frac float64, seed int64) *ml.Dataset {
	rng := rand.New(rand.NewSource(seed))
	out := &ml.Dataset{FeatureNames: d.FeatureNames}
	out.Examples = append([]ml.Example(nil), d.Examples...)
	for i := range out.Examples {
		if rng.Float64() < frac {
			out.Examples[i].Label = 1 + rng.Intn(ml.NumClasses)
		}
	}
	return out
}
