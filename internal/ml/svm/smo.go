package svm

import (
	"fmt"
	"math"
	"math/rand"

	"metaopt/internal/ml"
)

// SMO trains soft-margin C-SVMs with Platt's sequential minimal
// optimization, combined into a multi-class classifier through output
// codes. It exists as an ablation counterpart to the LS-SVM: the paper's
// toolkit was least-squares, but classical C-SVMs are the textbook variant.
type SMO struct {
	// C is the soft-margin penalty. Zero selects the default.
	C float64

	// Codes defaults to one-vs-rest over ml.NumClasses.
	Codes Codes

	// Tol and MaxPasses bound the optimization. Zero selects defaults.
	Tol       float64
	MaxPasses int

	// Seed drives SMO's randomized second-choice heuristic.
	Seed int64
}

var _ ml.Trainer = (*SMO)(nil)

type smoBinary struct {
	alpha []float64
	bias  float64
	y     []float64
}

// smoModel is a trained multi-class SMO SVM.
type smoModel struct {
	norm   *ml.Norm
	rows   [][]float64
	kernel Kernel
	codes  Codes
	bits   []smoBinary
}

var _ ml.Classifier = (*smoModel)(nil)

// Train fits one binary C-SVM per output-code bit on the RBF kernel with
// the median-distance bandwidth.
func (t *SMO) Train(d *ml.Dataset) (ml.Classifier, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	c := t.C
	if c <= 0 {
		c = 10
	}
	codes := t.Codes.orOneVsRest()
	tol := t.Tol
	if tol <= 0 {
		tol = 1e-3
	}
	maxPasses := t.MaxPasses
	if maxPasses <= 0 {
		maxPasses = 5
	}

	// The Gram matrix is computed once; all bits share it.
	norm, kernel, k := smoGram(d)
	n := d.Len()

	m := &smoModel{norm: norm, rows: norm.ApplyAll(d), kernel: kernel, codes: codes}
	rng := rand.New(rand.NewSource(t.Seed + 1))
	for bit := 0; bit < codes.NumBits(); bit++ {
		y := make([]float64, n)
		for i, e := range d.Examples {
			y[i] = codes.Target(e.Label, bit)
		}
		bin, err := smoTrain(k, y, c, tol, maxPasses, rng)
		if err != nil {
			return nil, fmt.Errorf("svm: bit %d: %w", bit, err)
		}
		m.bits = append(m.bits, bin)
	}
	return m, nil
}

// smoGram returns the normalizer, the kernel and the rows of the full RBF
// Gram matrix of d at the median-distance bandwidth: rbfGram's lower
// triangle mirrored into the upper, since SMO reads whole rows.
func smoGram(d *ml.Dataset) (*ml.Norm, RBF, [][]float64) {
	norm, kernel, gram := rbfGram(d, 0)
	gram.MirrorLower()
	k := make([][]float64, gram.Rows())
	for i := range k {
		k[i] = gram.Row(i)
	}
	return norm, kernel, k
}

// smoTrain is simplified SMO (Platt / Ng's CS229 variant) on a precomputed
// kernel matrix.
func smoTrain(k [][]float64, y []float64, c, tol float64, maxPasses int, rng *rand.Rand) (smoBinary, error) {
	n := len(y)
	alpha := make([]float64, n)
	b := 0.0
	f := func(i int) float64 {
		s := b
		for j := 0; j < n; j++ {
			if alpha[j] != 0 {
				s += alpha[j] * y[j] * k[i][j]
			}
		}
		return s
	}
	passes := 0
	iters := 0
	for passes < maxPasses {
		if iters++; iters > 200 {
			break // converged enough for a heuristic model
		}
		changed := 0
		for i := 0; i < n; i++ {
			ei := f(i) - y[i]
			if !((y[i]*ei < -tol && alpha[i] < c) || (y[i]*ei > tol && alpha[i] > 0)) {
				continue
			}
			j := rng.Intn(n - 1)
			if j >= i {
				j++
			}
			ej := f(j) - y[j]
			ai, aj := alpha[i], alpha[j]
			var lo, hi float64
			if y[i] != y[j] {
				lo = math.Max(0, aj-ai)
				hi = math.Min(c, c+aj-ai)
			} else {
				lo = math.Max(0, ai+aj-c)
				hi = math.Min(c, ai+aj)
			}
			if lo == hi {
				continue
			}
			eta := 2*k[i][j] - k[i][i] - k[j][j]
			if eta >= 0 {
				continue
			}
			ajNew := aj - y[j]*(ei-ej)/eta
			if ajNew > hi {
				ajNew = hi
			} else if ajNew < lo {
				ajNew = lo
			}
			if math.Abs(ajNew-aj) < 1e-5 {
				continue
			}
			aiNew := ai + y[i]*y[j]*(aj-ajNew)
			b1 := b - ei - y[i]*(aiNew-ai)*k[i][i] - y[j]*(ajNew-aj)*k[i][j]
			b2 := b - ej - y[i]*(aiNew-ai)*k[i][j] - y[j]*(ajNew-aj)*k[j][j]
			switch {
			case aiNew > 0 && aiNew < c:
				b = b1
			case ajNew > 0 && ajNew < c:
				b = b2
			default:
				b = (b1 + b2) / 2
			}
			alpha[i], alpha[j] = aiNew, ajNew
			changed++
		}
		if changed == 0 {
			passes++
		} else {
			passes = 0
		}
	}
	return smoBinary{alpha: alpha, bias: b, y: y}, nil
}

// Predict classifies a raw feature vector.
func (m *smoModel) Predict(features []float64) int {
	kvec := kernelRow(m.kernel, m.norm.Apply(features), m.rows)
	scores := make([]float64, len(m.bits))
	for bi, bin := range m.bits {
		s := bin.bias
		for i, a := range bin.alpha {
			if a != 0 {
				s += a * bin.y[i] * kvec[i]
			}
		}
		scores[bi] = s
	}
	return m.codes.Decode(scores)
}
