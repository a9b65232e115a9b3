// Package mis scores features by mutual information with the label — the
// paper's Section 7.1: I(f;u) = Σ P(φ,y)·log₂(P(φ,y)/(P(φ)·P(y))), with
// continuous features binned before the probability mass functions are
// estimated.
package mis

import (
	"math"
	"sort"

	"metaopt/internal/ml"
)

// DefaultBins is the number of equal-frequency bins for continuous
// features.
const DefaultBins = 10

// Scores returns the mutual information score of every feature, using
// equal-frequency binning with the given bin count (0 = DefaultBins).
func Scores(d *ml.Dataset, bins int) []float64 {
	if bins <= 0 {
		bins = DefaultBins
	}
	if d.Len() == 0 {
		return nil
	}
	dim := len(d.Examples[0].Features)
	out := make([]float64, dim)
	for f := 0; f < dim; f++ {
		out[f] = featureScore(d, f, bins)
	}
	return out
}

func featureScore(d *ml.Dataset, f, bins int) float64 {
	n := d.Len()
	// Equal-frequency bin edges.
	vals := make([]float64, n)
	for i, e := range d.Examples {
		vals[i] = e.Features[f]
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	edges := make([]float64, 0, bins-1)
	for b := 1; b < bins; b++ {
		edges = append(edges, sorted[b*n/bins])
	}
	binOf := func(v float64) int {
		// First edge greater than v.
		lo, hi := 0, len(edges)
		for lo < hi {
			mid := (lo + hi) / 2
			if v < edges[mid] {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		return lo
	}

	// Counts indexed by bin and label, summed in that order so the score
	// is the same bits on every call.
	joint := make([][ml.NumClasses + 1]int, bins)
	binCount := make([]int, bins)
	var labelCount [ml.NumClasses + 1]int
	for i, e := range d.Examples {
		b := binOf(vals[i])
		joint[b][e.Label]++
		binCount[b]++
		labelCount[e.Label]++
	}
	var info float64
	for b := range joint {
		for y, c := range joint[b] {
			if c == 0 {
				continue
			}
			pxy := float64(c) / float64(n)
			px := float64(binCount[b]) / float64(n)
			py := float64(labelCount[y]) / float64(n)
			info += pxy * math.Log2(pxy/(px*py))
		}
	}
	if info < 0 {
		info = 0 // guard against negative rounding noise
	}
	return info
}

// Ranked is a feature index with its score.
type Ranked struct {
	Feature int
	Score   float64
}

// Rank returns all features sorted by descending mutual information.
func Rank(d *ml.Dataset, bins int) []Ranked {
	scores := Scores(d, bins)
	out := make([]Ranked, len(scores))
	for i, s := range scores {
		out[i] = Ranked{Feature: i, Score: s}
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Score > out[b].Score })
	return out
}

// Top returns the k highest-scoring feature indices.
func Top(d *ml.Dataset, bins, k int) []int {
	ranked := Rank(d, bins)
	if k > len(ranked) {
		k = len(ranked)
	}
	idx := make([]int, k)
	for i := 0; i < k; i++ {
		idx[i] = ranked[i].Feature
	}
	return idx
}
