package svm

import (
	"fmt"

	"metaopt/internal/ml/compiled"
)

var _ compiled.Compiler = (*Model)(nil)
var _ compiled.Compiler = (*RegModel)(nil)
var _ compiled.Compiler = (*smoModel)(nil)

// kernelSigma maps a kernel to the compiled representation: the RBF
// bandwidth, or 0 for the linear kernel.
func kernelSigma(k Kernel) (float64, error) {
	switch kk := k.(type) {
	case RBF:
		if kk.Sigma <= 0 {
			return 0, fmt.Errorf("svm: compile: rbf kernel with sigma %v", kk.Sigma)
		}
		return kk.Sigma, nil
	case Linear:
		return 0, nil
	}
	return 0, fmt.Errorf("svm: compile: kernel %T has no compiled form", k)
}

// Compile bakes the support coefficients into a dense matrix over the
// flattened support table, so a serve-time query is one distance sweep
// plus one matrix-vector product.
func (m *Model) Compile() (*compiled.Program, error) {
	sigma, err := kernelSigma(m.kernel)
	if err != nil {
		return nil, err
	}
	return compiled.NewKernelMachine(compiled.KernelMachine{
		Norm: m.norm, Rows: m.rows, Sigma: sigma,
		Alpha: m.alpha, Bias: m.bias, Codes: m.codes.Bits,
	})
}

// Compile lowers the regressor onto the same dense kernel-machine form
// with a single output scored and rounded into the label range.
func (m *RegModel) Compile() (*compiled.Program, error) {
	sigma, err := kernelSigma(m.kernel)
	if err != nil {
		return nil, err
	}
	return compiled.NewRegressor(compiled.Regressor{
		Norm: m.norm, Rows: m.rows, Sigma: sigma,
		Alpha: m.alpha, Bias: m.bias,
	})
}

// Compile premultiplies each bit's coefficients by its binary targets, so
// the compiled score is one GEMV over a·y.
func (m *smoModel) Compile() (*compiled.Program, error) {
	sigma, err := kernelSigma(m.kernel)
	if err != nil {
		return nil, err
	}
	alpha := make([][]float64, len(m.bits))
	bias := make([]float64, len(m.bits))
	for bi, bin := range m.bits {
		if len(bin.alpha) != len(m.rows) || len(bin.y) != len(m.rows) {
			return nil, fmt.Errorf("svm: compile: SMO bit %d sized %d/%d for %d rows", bi, len(bin.alpha), len(bin.y), len(m.rows))
		}
		ay := make([]float64, len(bin.alpha))
		for i, a := range bin.alpha {
			ay[i] = a * bin.y[i]
		}
		alpha[bi] = ay
		bias[bi] = bin.bias
	}
	return compiled.NewKernelMachine(compiled.KernelMachine{
		Norm: m.norm, Rows: m.rows, Sigma: sigma,
		Alpha: alpha, Bias: bias, Codes: m.codes.Bits,
	})
}
