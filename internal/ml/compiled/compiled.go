// Package compiled lowers trained classifiers into the flat programs that
// answer serve-time batches. The classifiers in nn and svm are built for
// training-time ergonomics — [][]float64 row slices, per-query kernel
// closures. A compiled Program holds the same decision function in
// contiguous float32 arrays:
//
//   - the near-neighbor database becomes a flat exemplar table with
//     precomputed squared norms;
//   - kernel machines (LS-SVM, SMO, ridge regression) bake their support
//     coefficients into dense matrices so a batched query is one distance
//     sweep plus one GEMV.
//
// PredictBatch is the only evaluation path. A table program runs the whole
// batch through the float32 blocked distance kernel, which rounds
// differently than the classifier's float64 arithmetic — the divergence
// is declared in Version, which callers fold into their fingerprints.
// Single queries are answered by the trained classifier itself.
package compiled

import (
	"fmt"
	"sync"

	"metaopt/internal/linalg"
	"metaopt/internal/ml"
)

// Compiler is implemented by classifiers that can lower themselves into a
// table Program.
type Compiler interface {
	Compile() (*Program, error)
}

// Lower compiles a classifier. A classifier with no table form — the
// decision trees and boosted ensembles — batches through its own Predict,
// one query at a time, which is exact, so its version carries no "+f32b".
func Lower(c ml.Classifier) (*Program, error) {
	if cc, ok := c.(Compiler); ok {
		return cc.Compile()
	}
	return &Program{version: "exact/v1", direct: c}, nil
}

type kind uint8

const (
	kindNN kind = iota + 1
	kindKernel
	kindRegress
)

// Program is a lowered classifier. Programs are immutable after
// construction and safe for concurrent use; share them by pointer (the
// scratch pool must not be copied).
type Program struct {
	kind    kind
	version string
	direct  ml.Classifier // set for classifiers with no table form

	norm *ml.Norm

	// Exemplar/support table, n rows × dim, flat row-major float32, with
	// precomputed squared norms.
	n, dim  int
	table32 []float32
	norms32 []float32

	// Near-neighbor.
	labels []int
	radius float64
	oneNN  bool

	// Kernel machines. alpha32 is bits×n row-major (premultiplied by y for
	// SMO); sigma > 0 selects the RBF kernel, otherwise the linear kernel.
	bits    int
	alpha32 []float32
	bias    []float64
	codes   [][]int8
	sigma   float64

	scratch sync.Pool
}

// scratchBuf is the per-goroutine working set of a batch.
type scratchBuf struct {
	q   []float64 // one normalized query
	s   []float64 // per-bit scores
	q32 []float32 // normalized batch queries, flat m×dim
	d2  []float32 // batch squared distances, flat m×n
	k32 []float32 // kernel vector
	k64 []float64 // RBF kernel vector before rounding to float32
	s32 []float32 // per-bit float32 scores
}

func (p *Program) initPool() {
	p.scratch.New = func() any {
		return &scratchBuf{
			q: make([]float64, p.dim),
			s: make([]float64, max(p.bits, 1)),
		}
	}
}

// Version names the lowering and its rounding policy. Table lowerings
// append "+f32b" because their batch path rounds in float32. Callers
// version fingerprints with it.
func (p *Program) Version() string { return p.version }

// PredictBatch evaluates every query and writes the decisions into out
// (grown when too small) and returns it. Table programs run the float32
// blocked distance path across the whole batch at once, which is the
// rounding mode Version declares.
func (p *Program) PredictBatch(qs [][]float64, out []int) []int {
	if cap(out) < len(qs) {
		out = make([]int, len(qs))
	} else {
		out = out[:len(qs)]
	}
	m := len(qs)
	if m == 0 {
		return out
	}
	if p.direct != nil {
		for i, q := range qs {
			out[i] = p.direct.Predict(q)
		}
		return out
	}

	sc := p.scratch.Get().(*scratchBuf)
	sc.q32 = grow(sc.q32, m*p.dim)
	for i, v := range qs {
		nq := p.norm.ApplyInto(v, sc.q)
		dst := sc.q32[i*p.dim : (i+1)*p.dim]
		for j, x := range nq {
			dst[j] = float32(x)
		}
	}
	if p.kind == kindNN || p.sigma > 0 {
		sc.d2 = linalg.PairwiseSqDistF32Into(sc.q32, m, p.table32, p.n, p.dim, p.norms32, sc.d2)
	}

	switch p.kind {
	case kindNN:
		for i := 0; i < m; i++ {
			out[i] = ml.VoteRow(sc.d2[i*p.n:(i+1)*p.n], p.labels, -1, p.radius, p.oneNN)
		}
	case kindKernel:
		sc.k32 = grow(sc.k32, p.n)
		sc.s32 = grow(sc.s32, p.bits)
		scores := sc.s[:p.bits]
		for i := 0; i < m; i++ {
			p.kernelRow32(sc, sc.q32[i*p.dim:(i+1)*p.dim], i, sc.k32)
			linalg.MulVecF32(p.alpha32, p.bits, p.n, sc.k32, sc.s32)
			for b := 0; b < p.bits; b++ {
				scores[b] = float64(sc.s32[b]) + p.bias[b]
			}
			out[i] = ml.NearestCodeword(p.codes, scores)
		}
	case kindRegress:
		sc.k32 = grow(sc.k32, p.n)
		for i := 0; i < m; i++ {
			p.kernelRow32(sc, sc.q32[i*p.dim:(i+1)*p.dim], i, sc.k32)
			s := float64(linalg.DotF32(p.alpha32, sc.k32)) + p.bias[0]
			out[i] = ml.RoundLabel(s)
		}
	}
	p.scratch.Put(sc)
	return out
}

func grow[T float32 | float64](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
}

// --- Kernel machines -----------------------------------------------------

// kernelRow32 fills k with float32 kernel evaluations for batch query i.
// RBF widens the precomputed distance row into sc.k64 and exponentiates it
// with linalg.RBFExp: float32(math.Exp(float64(−d)/(2σ²))) bit for bit,
// since float64(−d) is −float64(d). The linear kernel dots the query
// against the float32 table.
func (p *Program) kernelRow32(sc *scratchBuf, qi []float32, i int, k []float32) {
	if p.sigma > 0 {
		sc.k64 = grow(sc.k64, p.n)
		for j, d := range sc.d2[i*p.n : (i+1)*p.n] {
			sc.k64[j] = float64(d)
		}
		linalg.RBFExp(sc.k64, 2*p.sigma*p.sigma)
		for j, v := range sc.k64 {
			k[j] = float32(v)
		}
		return
	}
	for j := range k {
		k[j] = linalg.DotF32(qi, p.table32[j*p.dim:(j+1)*p.dim])
	}
}

// --- Constructors --------------------------------------------------------

// flattenRows packs row slices into one float32 table plus its
// precomputed squared norms.
func flattenRows(rows [][]float64) (table32, norms32 []float32, dim int, err error) {
	n := len(rows)
	if n == 0 {
		return nil, nil, 0, fmt.Errorf("compiled: empty exemplar table")
	}
	dim = len(rows[0])
	if dim == 0 {
		return nil, nil, 0, fmt.Errorf("compiled: zero-dimensional exemplars")
	}
	table32 = make([]float32, n*dim)
	for i, r := range rows {
		if len(r) != dim {
			return nil, nil, 0, fmt.Errorf("compiled: ragged exemplar table: row %d has %d features, want %d", i, len(r), dim)
		}
		for j, v := range r {
			table32[i*dim+j] = float32(v)
		}
	}
	norms32 = linalg.SqNormsF32(table32, n, dim, nil)
	return table32, norms32, dim, nil
}

// NewNN lowers a near-neighbor database: normalized rows, their labels,
// and the voting radius (oneNN selects the pure 1-NN mode).
func NewNN(norm *ml.Norm, rows [][]float64, labels []int, radius float64, oneNN bool) (*Program, error) {
	if norm == nil {
		return nil, fmt.Errorf("compiled: nn lowering needs a normalizer")
	}
	if len(labels) != len(rows) {
		return nil, fmt.Errorf("compiled: %d labels for %d rows", len(labels), len(rows))
	}
	if !oneNN && radius <= 0 {
		return nil, fmt.Errorf("compiled: non-positive voting radius %v", radius)
	}
	table32, norms32, dim, err := flattenRows(rows)
	if err != nil {
		return nil, err
	}
	p := &Program{
		kind: kindNN, version: "nn/v1+f32b", norm: norm,
		n: len(rows), dim: dim, table32: table32, norms32: norms32,
		radius: radius, oneNN: oneNN,
		labels: labels,
	}
	for i, l := range labels {
		if l < 1 || l > ml.NumClasses {
			return nil, fmt.Errorf("compiled: exemplar %d has label %d outside [1,%d]", i, l, ml.NumClasses)
		}
	}
	p.initPool()
	return p, nil
}

// KernelMachine describes a multi-class kernel classifier to lower:
// one score per output-code bit, decoded to the nearest codeword.
type KernelMachine struct {
	Norm  *ml.Norm
	Rows  [][]float64
	Sigma float64 // RBF bandwidth; <= 0 selects the linear kernel
	Alpha [][]float64
	Bias  []float64
	Codes [][]int8
}

// NewKernelMachine lowers a multi-class kernel classifier.
func NewKernelMachine(km KernelMachine) (*Program, error) {
	if km.Norm == nil {
		return nil, fmt.Errorf("compiled: kernel lowering needs a normalizer")
	}
	bits := len(km.Alpha)
	if bits == 0 || len(km.Bias) != bits {
		return nil, fmt.Errorf("compiled: %d alpha rows for %d biases", bits, len(km.Bias))
	}
	if len(km.Codes) == 0 || len(km.Codes) > ml.NumClasses {
		return nil, fmt.Errorf("compiled: output code has %d classes, want 1..%d", len(km.Codes), ml.NumClasses)
	}
	for _, cw := range km.Codes {
		if len(cw) != bits {
			return nil, fmt.Errorf("compiled: codeword has %d bits, want %d", len(cw), bits)
		}
	}
	table32, norms32, dim, err := flattenRows(km.Rows)
	if err != nil {
		return nil, err
	}
	n := len(km.Rows)
	p := &Program{
		kind: kindKernel, version: "kern/v1+f32b", norm: km.Norm,
		n: n, dim: dim, table32: table32, norms32: norms32,
		bits: bits, bias: km.Bias, codes: km.Codes, sigma: km.Sigma,
		alpha32: make([]float32, bits*n),
	}
	for bit, a := range km.Alpha {
		if len(a) != n {
			return nil, fmt.Errorf("compiled: bit %d has %d coefficients for %d rows", bit, len(a), n)
		}
		for i, v := range a {
			p.alpha32[bit*n+i] = float32(v)
		}
	}
	p.initPool()
	return p, nil
}

// Regressor describes a kernel ridge regressor to lower: one real-valued
// score rounded into the label range.
type Regressor struct {
	Norm  *ml.Norm
	Rows  [][]float64
	Sigma float64 // RBF bandwidth; <= 0 selects the linear kernel
	Alpha []float64
	Bias  float64
}

// NewRegressor lowers a kernel ridge regressor.
func NewRegressor(r Regressor) (*Program, error) {
	if r.Norm == nil {
		return nil, fmt.Errorf("compiled: regress lowering needs a normalizer")
	}
	table32, norms32, dim, err := flattenRows(r.Rows)
	if err != nil {
		return nil, err
	}
	n := len(r.Rows)
	if len(r.Alpha) != n {
		return nil, fmt.Errorf("compiled: %d coefficients for %d rows", len(r.Alpha), n)
	}
	p := &Program{
		kind: kindRegress, version: "reg/v1+f32b", norm: r.Norm,
		n: n, dim: dim, table32: table32, norms32: norms32,
		bias:    []float64{r.Bias},
		sigma:   r.Sigma,
		alpha32: make([]float32, n),
	}
	for i, v := range r.Alpha {
		p.alpha32[i] = float32(v)
	}
	p.initPool()
	return p, nil
}
