package svm

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"metaopt/internal/linalg"
	"metaopt/internal/ml"
	"metaopt/internal/ml/mltest"
	"metaopt/internal/obs"
	"metaopt/internal/par"
)

func TestCodesOneVsRest(t *testing.T) {
	c := OneVsRest(4)
	if c.NumClasses() != 4 || c.NumBits() != 4 {
		t.Fatalf("dims = %d/%d", c.NumClasses(), c.NumBits())
	}
	if c.Target(2, 1) != 1 || c.Target(2, 0) != -1 {
		t.Error("targets wrong")
	}
	// Clear winner on bit 3.
	if got := c.Decode([]float64{-1, -0.5, -2, 3}); got != 4 {
		t.Errorf("decode = %d, want 4", got)
	}
	// All negative: least-negative bit should win via hinge tie-break.
	if got := c.Decode([]float64{-3, -0.1, -2, -1}); got != 2 {
		t.Errorf("decode = %d, want 2", got)
	}
}

func TestRandomCodesNonDegenerate(t *testing.T) {
	c := Random(8, 15, 42)
	if c.NumBits() != 15 {
		t.Fatalf("bits = %d", c.NumBits())
	}
	for b := 0; b < c.NumBits(); b++ {
		pos := 0
		for cl := 0; cl < c.NumClasses(); cl++ {
			if c.Bits[cl][b] == 1 {
				pos++
			} else if c.Bits[cl][b] != -1 {
				t.Fatalf("bit %d class %d = %d", b, cl, c.Bits[cl][b])
			}
		}
		if pos == 0 || pos == c.NumClasses() {
			t.Errorf("bit %d is degenerate", b)
		}
	}
}

func TestLSSVMSeparable(t *testing.T) {
	d := mltest.Clusters(160, 6, 4, 0.05, 1)
	tr := &LSSVM{}
	c, err := tr.Train(d)
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for _, e := range d.Examples {
		if c.Predict(e.Features) == e.Label {
			hits++
		}
	}
	if frac := float64(hits) / float64(d.Len()); frac < 0.95 {
		t.Errorf("training accuracy = %.2f", frac)
	}
}

func TestLSSVMGeneralizes(t *testing.T) {
	train := mltest.Clusters(160, 6, 4, 0.1, 2)
	test := mltest.Clusters(60, 6, 4, 0.1, 99)
	tr := &LSSVM{}
	c, err := tr.Train(train)
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for _, e := range test.Examples {
		if c.Predict(e.Features) == e.Label {
			hits++
		}
	}
	if frac := float64(hits) / float64(test.Len()); frac < 0.85 {
		t.Errorf("held-out accuracy = %.2f", frac)
	}
}

// TestLSSVMFastLOOCVMatchesExplicit is the key correctness property: the
// closed-form leave-one-out shortcut must agree with actually retraining
// without each example. Both run at one fixed bandwidth, so the folds share
// the kernel.
func TestLSSVMFastLOOCVMatchesExplicit(t *testing.T) {
	d := mltest.Clusters(40, 5, 4, 0.25, 3)
	tr := &LSSVM{Gamma: 20}
	const sigma = 1.5
	fast, err := tr.loocv(d, sigma)
	if err != nil {
		t.Fatal(err)
	}
	// Explicit refold: train on d minus i, predict example i.
	mismatches := 0
	for i := range d.Examples {
		c, err := tr.train(d.Without(i), sigma)
		if err != nil {
			t.Fatal(err)
		}
		if c.Predict(d.Examples[i].Features) != fast[i] {
			mismatches++
		}
	}
	// The explicit path refits normalization per fold, so its statistics
	// shift slightly: allow a small disagreement margin.
	if frac := float64(mismatches) / float64(d.Len()); frac > 0.15 {
		t.Errorf("fast vs explicit LOOCV disagreement = %.2f", frac)
	}
}

func TestLSSVMLOOCVAccuracyOnSeparableData(t *testing.T) {
	d := mltest.Clusters(160, 6, 4, 0.05, 4)
	tr := &LSSVM{}
	preds, err := tr.LOOCV(d)
	if err != nil {
		t.Fatal(err)
	}
	if acc := ml.Accuracy(d, preds); acc < 0.9 {
		t.Errorf("LOOCV accuracy = %.2f", acc)
	}
}

func TestLSSVMWithECOC(t *testing.T) {
	d := mltest.Clusters(120, 6, 4, 0.05, 5)
	tr := &LSSVM{Codes: Random(ml.NumClasses, 15, 7)}
	preds, err := tr.LOOCV(d)
	if err != nil {
		t.Fatal(err)
	}
	if acc := ml.Accuracy(d, preds); acc < 0.85 {
		t.Errorf("ECOC LOOCV accuracy = %.2f", acc)
	}
}

func TestLSSVMRejectsTinyLOOCV(t *testing.T) {
	d := mltest.Clusters(2, 3, 2, 0.1, 6)
	tr := &LSSVM{}
	if _, err := tr.LOOCV(d); err == nil {
		t.Error("expected error")
	}
}

func TestSMOSeparable(t *testing.T) {
	d := mltest.Clusters(100, 5, 4, 0.05, 7)
	tr := &SMO{Seed: 1}
	c, err := tr.Train(d)
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for _, e := range d.Examples {
		if c.Predict(e.Features) == e.Label {
			hits++
		}
	}
	if frac := float64(hits) / float64(d.Len()); frac < 0.85 {
		t.Errorf("SMO training accuracy = %.2f", frac)
	}
}

func TestKernels(t *testing.T) {
	a := []float64{1, 0}
	b := []float64{0, 1}
	r := RBF{Sigma: 1}
	if v := r.Eval(a, a); v != 1 {
		t.Errorf("RBF(a,a) = %v", v)
	}
	if v := r.Eval(a, b); v <= 0 || v >= 1 {
		t.Errorf("RBF(a,b) = %v", v)
	}
	if v := (Linear{}).Eval(a, b); v != 0 {
		t.Errorf("Linear = %v", v)
	}
}

func TestMedianSigma(t *testing.T) {
	rows := [][]float64{{0, 0}, {1, 0}, {0, 1}, {1, 1}}
	dist := make([]float64, len(rows)*len(rows))
	for i := range rows {
		for j := range rows {
			dist[i*len(rows)+j] = linalg.SqDist(rows[i], rows[j])
		}
	}
	if s := medianSigmaDist(dist, len(rows)); s != 1 {
		t.Errorf("sigma = %v, want the median distance 1", s)
	}
	if s := medianSigmaDist(dist[:1], 1); s != 1 {
		t.Errorf("degenerate sigma = %v", s)
	}

	// Against the sort it replaced — every sampled distance's root,
	// sort.Float64s (NaNs first), the middle one — at sizes that sample
	// every pair and every step-th, with ties, zeros and NaNs.
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{2, 3, 40, 151, 320} {
		for _, nanShare := range []float64{0, 0.2, 0.5, 0.7} {
			dist := make([]float64, n*n)
			for i := range dist {
				switch r := rng.Float64(); {
				case r < nanShare:
					dist[i] = math.NaN()
				case r < nanShare+0.1:
					dist[i] = 0
				default:
					dist[i] = float64(rng.Intn(50)) / 7
				}
			}
			step := max(n/150, 1)
			var roots []float64
			for i := 0; i < n; i += step {
				for j := i + step; j < n; j += step {
					roots = append(roots, math.Sqrt(dist[j*n+i]))
				}
			}
			sort.Float64s(roots)
			want := roots[len(roots)/2]
			if want <= 0 {
				want = 1
			}
			got := medianSigmaDist(dist, n)
			if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("n=%d NaN share %v: sigma %v, sorted median %v", n, nanShare, got, want)
			}
		}
	}
}

// TestLSSVMLOOCVPoolWidthInvariant runs an exact LOOCV large enough to
// span three 128-column panels of the factorization serially and over
// three workers: the predictions must agree, and the linalg kernels must
// split their work without adding stages or items to the pool's telemetry.
func TestLSSVMLOOCVPoolWidthInvariant(t *testing.T) {
	d := mltest.Clusters(320, 6, 4, 0.3, 11)
	stages, items := obs.C("par.stages"), obs.C("par.items_processed")
	var preds [2][]int
	for run, w := range []int{1, 3} {
		restore := par.SetLimit(w)
		s0, i0 := stages.Value(), items.Value()
		p, err := (&LSSVM{}).LOOCV(d)
		restore()
		if err != nil {
			t.Fatalf("width %d: %v", w, err)
		}
		if ds, di := stages.Value()-s0, items.Value()-i0; ds != 0 || di != 0 {
			t.Errorf("width %d: LOOCV moved par.stages by %d and par.items_processed by %d, want 0", w, ds, di)
		}
		preds[run] = p
	}
	if !slices.Equal(preds[0], preds[1]) {
		t.Fatalf("LOOCV predictions differ between widths 1 and 3:\n%v\n%v", preds[0], preds[1])
	}
}
