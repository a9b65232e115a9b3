// Package svm implements the paper's support vector machinery: a
// least-squares SVM with a radial-basis kernel (the LS-SVMlab toolkit the
// authors used), multi-class classification through output codes, an exact
// leave-one-out shortcut that makes full LOOCV on thousands of loops
// tractable, and an SMO-trained soft-margin C-SVM as an ablation
// alternative.
package svm

import (
	"math"

	"metaopt/internal/linalg"
	"metaopt/internal/ml"
	"metaopt/internal/par"
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

// kernelRow returns kernel.Eval(q, rows[i]) for every row, bit for bit.
// The RBF kernel takes every distance first and exponentiates the row with
// linalg.RBFExp, whose divisor is Eval's expression.
func kernelRow(kernel Kernel, q []float64, rows [][]float64) []float64 {
	k := make([]float64, len(rows))
	rbf, ok := kernel.(RBF)
	if !ok {
		for i, row := range rows {
			k[i] = kernel.Eval(q, row)
		}
		return k
	}
	for i, row := range rows {
		k[i] = linalg.SqDist(q, row)
	}
	linalg.RBFExp(k, 2*rbf.Sigma*rbf.Sigma)
	return k
}

// gramRows is the height of rbfGram's exponentiation work items.
const gramRows = 32

// rbfGram fits the normalizer to d's columns (ml.Dataset.Columns) and
// builds the RBF kernel and its Gram matrix Kᵢⱼ = exp(−‖xᵢ−xⱼ‖²/(2σ²)) from
// the pairwise squared distances of the normalized columns. sigma ≤ 0
// selects the median-distance bandwidth. Only the lower triangle and the
// diagonal are built, since that is all NewCholesky reads: the distances
// by linalg.SqDistLowerInto, then each row exponentiated in place by
// linalg.RBFExp in gramRows-row strips over the worker pool, so the Gram
// matrix is the one n×n buffer the caller holds and its upper triangle is
// zero. Every entry of the lower triangle equals the kernel's Eval on the
// two examples' normalized rows bit for bit: the distance is SqDist's, and
// the divisor is Eval's expression. Eval is symmetric bit for bit, so the
// lower triangle mirrored is the full Gram matrix (smoGram).
func rbfGram(d *ml.Dataset, sigma float64) (*ml.Norm, RBF, *linalg.Matrix) {
	cols := d.Columns()
	norm := ml.FitNorm(cols)
	n := cols.N
	dist := linalg.SqDistLowerInto(norm.ApplyColumns(cols), n, nil)
	if sigma <= 0 {
		sigma = medianSigmaDist(dist, n)
	}
	denom := 2 * sigma * sigma
	strips := (n + gramRows - 1) / gramRows
	par.ForEachWorkerQuiet(strips, func(_, s int) {
		s = strips - 1 - s
		for i := s * gramRows; i < min(n, (s+1)*gramRows); i++ {
			linalg.RBFExp(dist[i*n:i*n+i+1], denom)
		}
	})
	return norm, RBF{Sigma: sigma}, linalg.NewMatrixData(n, n, dist)
}

// medianSigmaDist estimates an RBF bandwidth as the median distance over a
// sample of the pairs in the lower triangle of an n×n squared-distance
// matrix — a standard heuristic when no bandwidth is given. It selects the
// middle squared distance and takes its square root, which is the median
// of the sorted distances bit for bit, since the root is monotone; NaNs
// count as the smallest, the order sort.Float64s gives them.
func medianSigmaDist(dist []float64, n int) float64 {
	if n < 2 {
		return 1
	}
	step := 1
	const sampleRows = 150
	if n > sampleRows {
		step = n / sampleRows
	}
	m := (n + step - 1) / step
	sample := make([]float64, 0, m*(m-1)/2)
	nans := 0
	for i := 0; i < n; i += step {
		for j := i + step; j < n; j += step {
			d2 := dist[j*n+i]
			if math.IsNaN(d2) {
				nans++
				continue
			}
			sample = append(sample, d2)
		}
	}
	total := len(sample) + nans
	if total == 0 {
		return 1
	}
	k := total / 2
	if k < nans {
		return math.NaN()
	}
	med := math.Sqrt(selectKth(sample, k-nans))
	if med <= 0 {
		return 1
	}
	return med
}

// selectKth returns the k-th smallest of s (0-based), which holds no NaN,
// by in-place Hoare quickselect.
func selectKth(s []float64, k int) float64 {
	lo, hi := 0, len(s)-1
	for lo < hi {
		p := s[(lo+hi)/2]
		i, j := lo, hi
		for i <= j {
			for s[i] < p {
				i++
			}
			for s[j] > p {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return s[k]
		}
	}
	return s[k]
}
