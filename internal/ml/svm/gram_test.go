package svm

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"metaopt/internal/linalg"
	"metaopt/internal/ml"
	"metaopt/internal/ml/mltest"
)

// oracleMedianSigma is the median-distance bandwidth computed the direct
// way: per-pair SqDist over normalized rows, on the sample of pairs the
// heuristic reads.
func oracleMedianSigma(rows [][]float64) float64 {
	n := len(rows)
	step := max(n/150, 1)
	var dists []float64
	for i := 0; i < n; i += step {
		for j := i + step; j < n; j += step {
			dists = append(dists, math.Sqrt(linalg.SqDist(rows[i], rows[j])))
		}
	}
	sort.Float64s(dists)
	return dists[len(dists)/2]
}

// evalGram is the reference Gram matrix: per-pair Eval on normalized rows.
func evalGram(k Kernel, rows [][]float64) [][]float64 {
	g := make([][]float64, len(rows))
	for i := range g {
		g[i] = make([]float64, len(rows))
		for j := range g[i] {
			g[i][j] = k.Eval(rows[i], rows[j])
		}
	}
	return g
}

// requireGram fails unless rbfGram on ds yields the bandwidth want and,
// entry by entry over the lower triangle and the diagonal (all the LS-SVM
// factors), the bits of per-pair Eval on rows.
func requireGram(t *testing.T, name string, ds *ml.Dataset, sigma, want float64, rows [][]float64) {
	t.Helper()
	_, kernel, gram := rbfGram(ds, sigma)
	if kernel.Sigma != want {
		t.Fatalf("%s sigma %v: bandwidth %v, want %v", name, sigma, kernel.Sigma, want)
	}
	ref := evalGram(kernel, rows)
	for i := range ref {
		for j, v := range ref[i][:i+1] {
			if math.Float64bits(gram.At(i, j)) != math.Float64bits(v) {
				t.Fatalf("%s sigma %v: K[%d][%d] = %v, Eval = %v", name, sigma, i, j, gram.At(i, j), v)
			}
		}
	}
}

// TestBlockedGramMatchesEval pins the Gram matrix built from the tiled
// column distances to per-pair RBF.Eval on ApplyAll rows, at a fixed
// bandwidth and at the median heuristic; the full matrix SMO trains on,
// that lower triangle mirrored, to the per-pair Eval matrix; and SMO to an
// SMO run on the per-pair Eval matrix.
func TestBlockedGramMatchesEval(t *testing.T) {
	d := mltest.Clusters(100, 5, 4, 0.2, 13)
	rows := ml.FitNorm(d.Columns()).ApplyAll(d)
	median := oracleMedianSigma(rows)
	requireGram(t, "rows", d, 1.7, 1.7, rows)
	requireGram(t, "rows", d, 0, median, rows)

	c, err := (&SMO{Seed: 1}).Train(d)
	if err != nil {
		t.Fatal(err)
	}
	m := c.(*smoModel)
	if m.kernel != (RBF{Sigma: median}) {
		t.Fatalf("SMO kernel %v, want RBF with bandwidth %v", m.kernel, median)
	}
	k := evalGram(m.kernel, rows)
	_, _, mirrored := smoGram(d)
	for i := range k {
		for j, v := range k[i] {
			if math.Float64bits(mirrored[i][j]) != math.Float64bits(v) {
				t.Fatalf("SMO's K[%d][%d] = %v, Eval = %v", i, j, mirrored[i][j], v)
			}
		}
	}
	codes := OneVsRest(ml.NumClasses)
	rng := rand.New(rand.NewSource(2))
	for bit, got := range m.bits {
		y := make([]float64, d.Len())
		for i, e := range d.Examples {
			y[i] = codes.Target(e.Label, bit)
		}
		want, err := smoTrain(k, y, 10, 1e-3, 5, rng)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got.bias) != math.Float64bits(want.bias) {
			t.Fatalf("SMO bit %d: bias %v, Eval-matrix run %v", bit, got.bias, want.bias)
		}
		for i := range want.alpha {
			if math.Float64bits(got.alpha[i]) != math.Float64bits(want.alpha[i]) {
				t.Fatalf("SMO bit %d: alpha[%d] = %v, Eval-matrix run %v", bit, i, got.alpha[i], want.alpha[i])
			}
		}
	}
}
