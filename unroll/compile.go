package unroll

import (
	"context"
	"fmt"
	"math"
	"sync"

	"metaopt/internal/ml/compiled"
)

// CompiledPredictor is a Predictor lowered by Compile into the flat form
// that answers batches: the near-neighbor database and SVM support vectors
// become dense float32 tables, and trees run their own walk per query.
//
// The batch paths run the float32 blocked distance kernel across the whole
// batch at once; its rounding can differ from the Predictor's float64
// arithmetic near decision boundaries. Single queries go to the Predictor.
type CompiledPredictor struct {
	src         *Predictor
	prog        *compiled.Program
	fingerprint string
	pool        sync.Pool // *compiledScratch
}

// compiledScratch is the pooled working set for projection and batching.
type compiledScratch struct {
	q    []float64   // one projected query
	flat []float64   // projected batch features, flat m×dim
	rows [][]float64 // row views into flat
	out  []int       // batch decisions
}

// Compile lowers a trained predictor. Every algorithm has a compiled form;
// an error means the model itself is malformed.
func Compile(p *Predictor) (*CompiledPredictor, error) {
	if p == nil {
		return nil, fmt.Errorf("unroll: compile: nil predictor")
	}
	prog, err := compiled.Lower(p.c)
	if err != nil {
		return nil, fmt.Errorf("unroll: compile: %w", err)
	}
	return &CompiledPredictor{
		src:         p,
		prog:        prog,
		fingerprint: p.fingerprint + "+" + prog.Version(),
	}, nil
}

// Fingerprint extends the source predictor's fingerprint with the lowering
// version tag, so the float32 batch rounding is visible in serving
// metadata.
func (c *CompiledPredictor) Fingerprint() string { return c.fingerprint }

// Version names the lowering and its rounding policy (e.g. "nn/v1+f32b").
func (c *CompiledPredictor) Version() string { return c.prog.Version() }

func (c *CompiledPredictor) getScratch() *compiledScratch {
	sc, _ := c.pool.Get().(*compiledScratch)
	if sc == nil {
		sc = &compiledScratch{q: make([]float64, NumFeatures)}
	}
	return sc
}

// project maps a full-length vector onto the predictor's feature subset
// using pooled scratch; already-projected vectors pass through.
func (c *CompiledPredictor) project(v []float64, sc *compiledScratch) ([]float64, error) {
	feats := c.src.feats
	if feats == nil {
		if len(v) != NumFeatures {
			return nil, fmt.Errorf("unroll: feature vector has %d elements, want %d", len(v), NumFeatures)
		}
		return v, nil
	}
	if len(v) == len(feats) {
		return v, nil
	}
	if len(v) != NumFeatures {
		return nil, fmt.Errorf("unroll: feature vector has %d elements, want %d or %d", len(v), NumFeatures, len(feats))
	}
	out := sc.q[:len(feats)]
	for k, j := range feats {
		if j < 0 || j >= len(v) {
			return nil, fmt.Errorf("unroll: predictor selects feature %d but the vector has %d", j, len(v))
		}
		out[k] = v[j]
	}
	return out, nil
}

// PredictBatch predicts every loop through the compiled batch path and
// returns the factors. See PredictBatchInto for the allocation-reusing
// form.
func (c *CompiledPredictor) PredictBatch(ctx context.Context, loops []*Loop) ([]int, error) {
	out := make([]int, len(loops))
	if err := c.PredictBatchInto(ctx, loops, out); err != nil {
		return nil, err
	}
	return out, nil
}

// PredictBatchInto extracts every loop's features and runs the whole batch
// through the compiled float32 distance path in one dispatch, writing the
// factors into out (which must have len(loops) elements). The context is
// checked between feature extractions; any failure aborts the batch.
func (c *CompiledPredictor) PredictBatchInto(ctx context.Context, loops []*Loop, out []int) error {
	if len(out) != len(loops) {
		return fmt.Errorf("unroll: batch output has %d slots for %d loops", len(out), len(loops))
	}
	sc := c.getScratch()
	defer c.pool.Put(sc)
	vs, err := c.batchFeatures(ctx, loops, sc)
	if err != nil {
		return err
	}
	sc.out = c.prog.PredictBatch(vs, sc.out)
	for i, u := range sc.out {
		out[i] = clampFactor(u)
	}
	return nil
}

// PredictFeaturesBatch runs pre-extracted feature vectors through the
// compiled batch path, writing clamped factors into out (grown when too
// small) and returning it. Vectors follow the Predictor.PredictFeatures
// contract: finite, and either NumFeatures long or already projected.
func (c *CompiledPredictor) PredictFeaturesBatch(vs [][]float64, out []int) ([]int, error) {
	if cap(out) < len(vs) {
		out = make([]int, len(vs))
	} else {
		out = out[:len(vs)]
	}
	sc := c.getScratch()
	defer c.pool.Put(sc)
	dim := len(c.src.feats)
	if c.src.feats == nil {
		dim = NumFeatures
	}
	sc.flat = growFloats(sc.flat, len(vs)*dim)
	sc.rows = growRows(sc.rows, len(vs))
	for i, v := range vs {
		for j, f := range v {
			if math.IsNaN(f) || math.IsInf(f, 0) {
				nonFiniteRejects.Inc()
				return nil, fmt.Errorf("unroll: batch vector %d feature %d is not finite (%v)", i, j, f)
			}
		}
		q, err := c.project(v, sc)
		if err != nil {
			return nil, fmt.Errorf("unroll: batch vector %d: %w", i, err)
		}
		row := sc.flat[i*dim : (i+1)*dim]
		copy(row, q)
		sc.rows[i] = row
	}
	sc.out = c.prog.PredictBatch(sc.rows[:len(vs)], sc.out)
	for i, u := range sc.out {
		out[i] = clampFactor(u)
	}
	return out, nil
}

// batchFeatures extracts and projects every loop's features into the
// scratch arena, returning row views over one flat slab.
func (c *CompiledPredictor) batchFeatures(ctx context.Context, loops []*Loop, sc *compiledScratch) ([][]float64, error) {
	dim := len(c.src.feats)
	if c.src.feats == nil {
		dim = NumFeatures
	}
	sc.flat = growFloats(sc.flat, len(loops)*dim)
	sc.rows = growRows(sc.rows, len(loops))
	for i, l := range loops {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("unroll: batch loop %d of %d: %w", i, len(loops), err)
		}
		v, err := c.src.featuresOf(l)
		if err != nil {
			return nil, fmt.Errorf("unroll: batch loop %d of %d: %w", i, len(loops), err)
		}
		row := sc.flat[i*dim : (i+1)*dim]
		copy(row, v)
		sc.rows[i] = row
	}
	return sc.rows[:len(loops)], nil
}

func clampFactor(u int) int {
	if u < 1 {
		u = 1
	}
	if u > MaxFactor {
		u = MaxFactor
	}
	return u
}

func growFloats(b []float64, n int) []float64 {
	if cap(b) < n {
		return make([]float64, n)
	}
	return b[:n]
}

func growRows(b [][]float64, n int) [][]float64 {
	if cap(b) < n {
		return make([][]float64, n)
	}
	return b[:n]
}
