package svm

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"metaopt/internal/linalg"
	"metaopt/internal/ml"
	"metaopt/internal/ml/mltest"
	"metaopt/internal/par"
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
// bandwidth and at the median heuristic, at sizes that cut the 4×8 tiles
// and the 32-row strips and at pool widths 1–3; the full matrix SMO trains
// on, that lower triangle mirrored, to the per-pair Eval matrix; and SMO to
// an SMO run on the per-pair Eval matrix.
func TestBlockedGramMatchesEval(t *testing.T) {
	for _, n := range []int{37, 101} {
		d := mltest.Clusters(n, 5, 4, 0.2, 13)
		rows := ml.FitNorm(d.Columns()).ApplyAll(d)
		median := oracleMedianSigma(rows)
		for w := 1; w <= 3; w++ {
			restore := par.SetLimit(w)
			name := fmt.Sprintf("n=%d width %d", n, w)
			requireGram(t, name, d, 1.7, 1.7, rows)
			requireGram(t, name, d, 0, median, rows)
			requireGram(t, name, d, 0.01, 0.01, rows)
			restore()
		}
	}

	d := mltest.Clusters(101, 5, 4, 0.2, 13)
	rows := ml.FitNorm(d.Columns()).ApplyAll(d)
	median := oracleMedianSigma(rows)
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

// TestKernelRowMatchesEval pins kernelRow to per-row Eval bit for bit for
// the RBF kernel — at bandwidths whose arguments stay in the exp leaf's
// range and ones small enough to send some outside it — and the linear
// kernel, over rows of every length up to 9 and a long one.
func TestKernelRowMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	draw := func(n int) [][]float64 {
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = make([]float64, 6)
			for f := range rows[i] {
				rows[i][f] = rng.NormFloat64()
			}
		}
		return rows
	}
	kernels := []Kernel{RBF{Sigma: 1}, RBF{Sigma: 0.37}, RBF{Sigma: 0.05}, RBF{Sigma: 0.02}, RBF{Sigma: 1e3}, Linear{}}
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1000} {
		rows := draw(n)
		q := draw(1)[0]
		for _, k := range kernels {
			got := kernelRow(k, q, rows)
			if len(got) != n {
				t.Fatalf("%v n=%d: %d values", k, n, len(got))
			}
			for i, row := range rows {
				if want := k.Eval(q, row); math.Float64bits(got[i]) != math.Float64bits(want) {
					t.Fatalf("%v n=%d: row %d = %v, Eval %v", k, n, i, got[i], want)
				}
			}
		}
	}
}

// TestPredictorsMatchEval pins the LS-SVM's Scores and Predict, the
// regressor's Value and SMO's Predict, which share kernelRow, to the
// decision functions restated with per-row Eval.
func TestPredictorsMatchEval(t *testing.T) {
	d := mltest.Clusters(90, 5, 4, 0.3, 7)
	c, err := (&LSSVM{}).Train(d)
	if err != nil {
		t.Fatal(err)
	}
	m := c.(*Model)
	rc, err := (&Regression{}).Train(d)
	if err != nil {
		t.Fatal(err)
	}
	r := rc.(*RegModel)
	sc, err := (&SMO{Seed: 3}).Train(d)
	if err != nil {
		t.Fatal(err)
	}
	sm := sc.(*smoModel)
	q := mltest.Clusters(40, 5, 4, 0.6, 8)
	for _, e := range q.Examples {
		nq := m.norm.Apply(e.Features)
		want := make([]float64, len(m.alpha))
		for bit := range m.alpha {
			want[bit] = m.bias[bit]
			for i, a := range m.alpha[bit] {
				want[bit] += a * m.kernel.Eval(nq, m.rows[i])
			}
		}
		got := m.Scores(e.Features)
		for bit := range want {
			if math.Float64bits(got[bit]) != math.Float64bits(want[bit]) {
				t.Fatalf("LS-SVM bit %d: Scores %v, Eval %v", bit, got[bit], want[bit])
			}
		}
		if p := m.Predict(e.Features); p != m.codes.Decode(want) {
			t.Fatalf("LS-SVM Predict %d, Eval decodes %d", p, m.codes.Decode(want))
		}

		nq = r.norm.Apply(e.Features)
		v := r.bias
		for i, a := range r.alpha {
			v += a * r.kernel.Eval(nq, r.rows[i])
		}
		if got := r.Value(e.Features); math.Float64bits(got) != math.Float64bits(v) {
			t.Fatalf("regression Value %v, Eval %v", got, v)
		}

		nq = sm.norm.Apply(e.Features)
		scores := make([]float64, len(sm.bits))
		for bi, bin := range sm.bits {
			scores[bi] = bin.bias
			for i, a := range bin.alpha {
				if a != 0 {
					scores[bi] += a * bin.y[i] * sm.kernel.Eval(nq, sm.rows[i])
				}
			}
		}
		if p := sm.Predict(e.Features); p != sm.codes.Decode(scores) {
			t.Fatalf("SMO Predict %d, Eval decodes %d", p, sm.codes.Decode(scores))
		}
	}
}

func BenchmarkRBFGram(b *testing.B) {
	for _, n := range []int{1500, 3153} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			d := mltest.Clusters(n, 11, 4, 0.3, 1)
			d.BuildColumns()
			for range b.N {
				rbfGram(d, 0)
			}
		})
	}
}
