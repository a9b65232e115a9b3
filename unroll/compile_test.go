package unroll_test

import (
	"context"
	"strings"
	"sync"
	"testing"

	"metaopt/unroll"
)

// allAlgorithms is every Algorithm with a compiled lowering — which must be
// all of them.
var allAlgorithms = []unroll.Algorithm{
	unroll.NearNeighbor, unroll.LSSVM, unroll.LSSVMECOC, unroll.SMOSVM,
	unroll.Regress, unroll.DecisionTree, unroll.BoostedTree,
}

var equivOnce struct {
	sync.Once
	d     *unroll.Dataset
	loops []*unroll.Loop
	err   error
}

// equivCorpus trains on one small dataset and collects every loop of the
// full-scale generated corpus as the equivalence query set.
func equivCorpus(t *testing.T) (*unroll.Dataset, []*unroll.Loop) {
	t.Helper()
	equivOnce.Do(func() {
		c, err := unroll.GenerateCorpus(5, 0.08)
		if err != nil {
			equivOnce.err = err
			return
		}
		equivOnce.d, equivOnce.err = unroll.CollectDataset(c, unroll.CollectOptions{Seed: 1, Runs: 5})
		if equivOnce.err != nil {
			return
		}
		full, err := unroll.GenerateCorpus(2005, 1.0)
		if err != nil {
			equivOnce.err = err
			return
		}
		for _, b := range full.Benchmarks {
			equivOnce.loops = append(equivOnce.loops, b.Loops...)
		}
	})
	if equivOnce.err != nil {
		t.Fatal(equivOnce.err)
	}
	return equivOnce.d, equivOnce.loops
}

// TestCompiledMatchesInterpretedCorpus is the equivalence corpus test the
// compiled fingerprint contract rests on: for every algorithm, over every
// loop of the full generated corpus, the float32 batch path must reach the
// same decisions as the trained classifier.
func TestCompiledMatchesInterpretedCorpus(t *testing.T) {
	d, loops := equivCorpus(t)
	for _, alg := range allAlgorithms {
		alg := alg
		t.Run(string(alg), func(t *testing.T) {
			t.Parallel()
			p, err := unroll.Train(d, unroll.TrainOptions{Algorithm: alg})
			if err != nil {
				t.Fatal(err)
			}
			c, err := unroll.Compile(p)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := c.Fingerprint(), p.Fingerprint()+"+"+c.Version(); got != want {
				t.Fatalf("fingerprint = %q, want %q", got, want)
			}
			tree := alg == unroll.DecisionTree || alg == unroll.BoostedTree
			if f32 := strings.HasSuffix(c.Version(), "+f32b"); f32 == tree {
				t.Fatalf("version %q: float32 rounding declared = %v for a %s model", c.Version(), f32, alg)
			}
			var batchDiverged int
			// Serve-sized chunks over the whole corpus.
			const chunk = 256
			for lo := 0; lo < len(loops); lo += chunk {
				hi := min(lo+chunk, len(loops))
				got, err := c.PredictBatch(context.Background(), loops[lo:hi])
				if err != nil {
					t.Fatal(err)
				}
				for i, u := range got {
					want, err := p.PredictCtx(context.Background(), loops[lo+i])
					if err != nil {
						t.Fatal(err)
					}
					if u != want {
						batchDiverged++
						t.Errorf("loop %d: f32 batch = %d, classifier = %d", lo+i, u, want)
					}
				}
			}
			if batchDiverged > 0 {
				t.Fatalf("%s: %d/%d batch decisions diverged from the classifier", alg, batchDiverged, len(loops))
			}
		})
	}
}

// TestCompiledBatchReuse checks the Into/grown-output forms reuse caller
// storage and stay consistent with the plain batch form.
func TestCompiledBatchReuse(t *testing.T) {
	d, loops := equivCorpus(t)
	if len(loops) > 64 {
		loops = loops[:64]
	}
	mach := unroll.Itanium2()
	p, err := unroll.Train(d, unroll.TrainOptions{Algorithm: unroll.NearNeighbor})
	if err != nil {
		t.Fatal(err)
	}
	c, err := unroll.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	want, err := c.PredictBatch(context.Background(), loops)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]int, len(loops))
	if err := c.PredictBatchInto(context.Background(), loops, out); err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if out[i] != want[i] {
			t.Fatalf("loop %d: Into = %d, batch = %d", i, out[i], want[i])
		}
	}
	if err := c.PredictBatchInto(context.Background(), loops, out[:1]); err == nil && len(loops) > 1 {
		t.Error("expected size-mismatch error")
	}
	vs := make([][]float64, len(loops))
	for i, l := range loops {
		vs[i] = unroll.Features(l, mach)
	}
	buf := make([]int, 0, len(vs))
	got, err := c.PredictFeaturesBatch(vs, buf)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &buf[:1][0] {
		t.Error("PredictFeaturesBatch reallocated despite sufficient capacity")
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("loop %d: features batch = %d, loop batch = %d", i, got[i], want[i])
		}
	}
	if _, err := c.PredictFeaturesBatch([][]float64{vs[0], vs[1][:3]}, nil); err == nil {
		t.Error("expected length error for a short vector")
	}
}

// TestCompileRejectsNil covers the error boundary.
func TestCompileRejectsNil(t *testing.T) {
	if _, err := unroll.Compile(nil); err == nil {
		t.Error("expected error for nil predictor")
	}
}
