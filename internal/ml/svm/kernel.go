// Package svm implements the paper's support vector machinery: a
// least-squares SVM with a radial-basis kernel (the LS-SVMlab toolkit the
// authors used), multi-class classification through output codes, an exact
// leave-one-out shortcut that makes full LOOCV on thousands of loops
// tractable, and an SMO-trained soft-margin C-SVM as an ablation
// alternative.
package svm

import (
	"math"
	"sort"

	"metaopt/internal/linalg"
	"metaopt/internal/ml"
)

// Kernel is a positive-definite similarity function.
type Kernel interface {
	Eval(a, b []float64) float64
}

// RBF is the radial basis kernel exp(−‖a−b‖² / (2σ²)).
type RBF struct {
	Sigma float64
}

// Eval implements Kernel.
func (k RBF) Eval(a, b []float64) float64 {
	return math.Exp(-linalg.SqDist(a, b) / (2 * k.Sigma * k.Sigma))
}

// Linear is the inner-product kernel.
type Linear struct{}

// Eval implements Kernel.
func (Linear) Eval(a, b []float64) float64 { return linalg.Dot(a, b) }

// rbfGram fits the normalizer to d's columns (ml.Dataset.Columns) and
// builds the RBF kernel and its Gram matrix Kᵢⱼ = exp(−‖xᵢ−xⱼ‖²/(2σ²)) from
// the tiled pairwise squared distances of the normalized columns. sigma ≤ 0
// selects the median-distance bandwidth. The distances are exponentiated in
// place, so the Gram matrix is the one n×n buffer the caller holds. Only
// the lower triangle and the diagonal are exponentiated, since that is all
// NewCholesky reads; the upper triangle keeps the squared distances. Every
// entry of the lower triangle equals the kernel's Eval on the two
// examples' normalized rows bit for bit: the distance is SqDist's, and the
// divisor is Eval's expression. The distances are symmetric bit for bit,
// so the lower triangle mirrored is the full Gram matrix (smoGram).
func rbfGram(d *ml.Dataset, sigma float64) (*ml.Norm, RBF, *linalg.Matrix) {
	cols := d.Columns()
	norm := ml.FitNorm(cols)
	n := cols.N
	dist := linalg.PairwiseSqDistColsInto(norm.ApplyColumns(cols), n, nil)
	if sigma <= 0 {
		sigma = medianSigmaDist(dist, n)
	}
	denom := 2 * sigma * sigma
	for i := range n {
		row := dist[i*n : i*n+i+1]
		for j, d2 := range row {
			row[j] = math.Exp(-d2 / denom)
		}
	}
	return norm, RBF{Sigma: sigma}, linalg.NewMatrixData(n, n, dist)
}

// medianSigmaDist estimates an RBF bandwidth as the median distance over a
// sample of the pairs of an n×n squared-distance matrix — a standard
// heuristic when no bandwidth is given.
func medianSigmaDist(dist []float64, n int) float64 {
	if n < 2 {
		return 1
	}
	step := 1
	const sampleRows = 150
	if n > sampleRows {
		step = n / sampleRows
	}
	var dists []float64
	for i := 0; i < n; i += step {
		for j := i + step; j < n; j += step {
			dists = append(dists, math.Sqrt(dist[i*n+j]))
		}
	}
	if len(dists) == 0 {
		return 1
	}
	sort.Float64s(dists)
	med := dists[len(dists)/2]
	if med <= 0 {
		return 1
	}
	return med
}
