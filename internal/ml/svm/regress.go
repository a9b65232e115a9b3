package svm

import (
	"fmt"

	"metaopt/internal/ml"
)

// Regression is kernel ridge regression in LS-SVM form, predicting the
// unroll factor as a real value and rounding to the label range. The paper
// lists regression as future work ("which can predict values outside the
// range of the labels"); this implements it on the same solver as the
// classifier.
type Regression struct {
	// Gamma is the regularization weight γ. Zero selects the default.
	Gamma float64
}

var _ ml.Trainer = (*Regression)(nil)
var _ ml.LOOCVer = (*Regression)(nil)

// RegModel is a trained regressor.
type RegModel struct {
	norm   *ml.Norm
	rows   [][]float64
	kernel Kernel
	alpha  []float64
	bias   float64
}

var _ ml.Classifier = (*RegModel)(nil)

// labelTargets returns every example's label as a regression target.
func labelTargets(d *ml.Dataset) []float64 {
	y := make([]float64, d.Len())
	for i, e := range d.Examples {
		y[i] = float64(e.Label)
	}
	return y
}

// Train fits the regressor to the labels.
func (t *Regression) Train(d *ml.Dataset) (ml.Classifier, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	sys, err := newSystem(d, t.Gamma, 0, [][]float64{labelTargets(d)})
	if err != nil {
		return nil, err
	}
	return &RegModel{norm: sys.norm, rows: sys.norm.ApplyAll(d), kernel: sys.kernel, alpha: sys.alpha[0], bias: sys.bias[0]}, nil
}

// Value returns the raw real-valued prediction.
func (m *RegModel) Value(features []float64) float64 {
	k := kernelRow(m.kernel, m.norm.Apply(features), m.rows)
	s := m.bias
	for i, a := range m.alpha {
		s += a * k[i]
	}
	return s
}

// Predict rounds the regression value into the label range.
func (m *RegModel) Predict(features []float64) int {
	return ml.RoundLabel(m.Value(features))
}

// LOOCV computes exact leave-one-out predictions with the same shortcut as
// the classifier: ŷᵢ = yᵢ − αᵢ/(C⁻¹)ᵢᵢ.
func (t *Regression) LOOCV(d *ml.Dataset) ([]int, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if d.Len() < 3 {
		return nil, fmt.Errorf("svm: regression LOOCV needs at least 3 examples")
	}
	y := labelTargets(d)
	sys, err := newSystem(d, t.Gamma, 0, [][]float64{y})
	if err != nil {
		return nil, err
	}
	alpha := sys.alpha[0]
	preds := make([]int, len(y))
	for i, diagC := range sys.looDiag() {
		if diagC <= 0 {
			preds[i] = ml.RoundLabel(y[i])
			continue
		}
		preds[i] = ml.RoundLabel(y[i] - alpha[i]/diagC)
	}
	return preds, nil
}
