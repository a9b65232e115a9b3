package svm

import (
	"fmt"

	"metaopt/internal/linalg"
	"metaopt/internal/ml"
)

// LSSVM trains least-squares support vector machines — the formulation of
// the LS-SVMlab toolkit the paper used. Binary machines solve
//
//	(K + I/γ)·a + b·1 = y,   1ᵀa = 0
//
// and classify by sign(Σᵢ aᵢ·K(xᵢ,x) + b). Multi-class problems use output
// codes; because the system matrix is label-independent, all bits share one
// Cholesky factorization, and the exact leave-one-out shortcut
// ŷᵢ = yᵢ − aᵢ/(C⁻¹)ᵢᵢ makes full LOOCV over thousands of loops cheap.
type LSSVM struct {
	// Gamma is the regularization weight γ (larger = tighter fit).
	// Zero selects the default.
	Gamma float64

	// Codes defaults to one-vs-rest over ml.NumClasses.
	Codes Codes
}

// DefaultGamma is the regularization used when none is configured.
const DefaultGamma = 50

var _ ml.Trainer = (*LSSVM)(nil)
var _ ml.LOOCVer = (*LSSVM)(nil)

// Model is a trained multi-class LS-SVM.
type Model struct {
	norm   *ml.Norm
	rows   [][]float64
	kernel Kernel
	codes  Codes
	alpha  [][]float64 // [bit][example]
	bias   []float64   // [bit]
}

var _ ml.Classifier = (*Model)(nil)

// system is the factored LS-SVM matrix A = K + I/γ over one dataset's RBF
// Gram matrix, with u = A⁻¹·1 and s = 1ᵀu, which every output bit shares,
// and the solution (alpha, bias) of each target vector it was built for.
type system struct {
	norm   *ml.Norm
	kernel RBF
	ch     *linalg.Cholesky
	u      []float64
	s      float64
	alpha  [][]float64 // [target][example]
	bias   []float64   // [target]
}

// newSystem builds and factors the system for d with regularization gamma
// (zero selects DefaultGamma) at bandwidth sigma (≤ 0 selects the median
// heuristic), and solves it for the ones vector and every target vector in
// ys in one pass over the factor. The Gram matrix is factored in place, so
// the system holds one n×n buffer.
func newSystem(d *ml.Dataset, gamma, sigma float64, ys [][]float64) (*system, error) {
	if gamma <= 0 {
		gamma = DefaultGamma
	}
	norm, kernel, a := rbfGram(d, sigma)
	n := a.Rows()
	ones := make([]float64, n)
	for i := range ones {
		a.Add(i, i, 1/gamma)
		ones[i] = 1
	}
	ch, err := linalg.NewCholesky(a)
	if err != nil {
		return nil, fmt.Errorf("svm: kernel system not positive definite: %w", err)
	}
	xs := ch.SolveMany(append([][]float64{ones}, ys...))
	sys := &system{norm: norm, kernel: kernel, ch: ch, u: xs[0]}
	for _, x := range sys.u {
		sys.s += x
	}
	for _, v := range xs[1:] {
		alpha, bias := sys.bit(v)
		sys.alpha = append(sys.alpha, alpha)
		sys.bias = append(sys.bias, bias)
	}
	return sys, nil
}

// looDiag returns (C⁻¹)ᵢᵢ = (A⁻¹)ᵢᵢ − uᵢ²/s for every example, where C is
// the full bordered KKT matrix: the denominators of the exact leave-one-out
// shortcut.
func (sys *system) looDiag() []float64 {
	diag := sys.ch.InverseDiagonal()
	for i, a := range diag {
		diag[i] = a - sys.u[i]*sys.u[i]/sys.s
	}
	return diag
}

// bit computes (a, b) for one binary subproblem from v = A⁻¹·y.
func (sys *system) bit(v []float64) (alpha []float64, bias float64) {
	var sv float64
	for _, x := range v {
		sv += x
	}
	bias = sv / sys.s
	alpha = make([]float64, len(v))
	for i := range alpha {
		alpha[i] = v[i] - bias*sys.u[i]
	}
	return alpha, bias
}

// bitTargets returns the ±1 targets of every output-code bit for d.
func bitTargets(d *ml.Dataset, codes Codes) [][]float64 {
	ys := make([][]float64, codes.NumBits())
	for bit := range ys {
		y := make([]float64, d.Len())
		for i, e := range d.Examples {
			y[i] = codes.Target(e.Label, bit)
		}
		ys[bit] = y
	}
	return ys
}

// Train fits one binary machine per output-code bit.
func (t *LSSVM) Train(d *ml.Dataset) (ml.Classifier, error) {
	return t.train(d, 0)
}

// train is Train at RBF bandwidth sigma (≤ 0 selects the median heuristic).
func (t *LSSVM) train(d *ml.Dataset, sigma float64) (ml.Classifier, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	codes := t.Codes.orOneVsRest()
	sys, err := newSystem(d, t.Gamma, sigma, bitTargets(d, codes))
	if err != nil {
		return nil, err
	}
	return &Model{norm: sys.norm, rows: sys.norm.ApplyAll(d), kernel: sys.kernel, codes: codes,
		alpha: sys.alpha, bias: sys.bias}, nil
}

// Predict classifies a raw feature vector.
func (m *Model) Predict(features []float64) int {
	return m.codes.Decode(m.Scores(features))
}

// Scores returns the per-bit decision values for a raw feature vector.
func (m *Model) Scores(features []float64) []float64 {
	k := kernelRow(m.kernel, m.norm.Apply(features), m.rows)
	scores := make([]float64, len(m.alpha))
	for bit := range m.alpha {
		s := m.bias[bit]
		for i, a := range m.alpha[bit] {
			s += a * k[i]
		}
		scores[bit] = s
	}
	return scores
}

// LOOCV computes exact leave-one-out predictions: for each bit,
// ŷᵢ = yᵢ − aᵢ/(C⁻¹)ᵢᵢ, where C is the full bordered KKT matrix. One
// factorization serves every fold and every bit.
func (t *LSSVM) LOOCV(d *ml.Dataset) ([]int, error) {
	return t.loocv(d, 0)
}

// loocv is LOOCV at RBF bandwidth sigma (≤ 0 selects the median heuristic).
func (t *LSSVM) loocv(d *ml.Dataset, sigma float64) ([]int, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if d.Len() < 3 {
		return nil, fmt.Errorf("svm: LOOCV needs at least 3 examples")
	}
	codes := t.Codes.orOneVsRest()
	ys := bitTargets(d, codes)
	sys, err := newSystem(d, t.Gamma, sigma, ys)
	if err != nil {
		return nil, err
	}
	n := d.Len()
	diagC := sys.looDiag()
	looScores := make([][]float64, n)
	for i := range looScores {
		looScores[i] = make([]float64, codes.NumBits())
	}
	for bit, y := range ys {
		alpha := sys.alpha[bit]
		for i := range alpha {
			if diagC[i] <= 0 {
				// Numerically degenerate fold: fall back to the training
				// residual (no correction).
				looScores[i][bit] = y[i]
				continue
			}
			looScores[i][bit] = y[i] - alpha[i]/diagC[i]
		}
	}
	preds := make([]int, n)
	for i := range preds {
		preds[i] = codes.Decode(looScores[i])
	}
	return preds, nil
}
