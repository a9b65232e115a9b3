package nn

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"metaopt/internal/linalg"
	"metaopt/internal/ml"
	"metaopt/internal/ml/mltest"
	"metaopt/internal/par"
)

// alphabetData draws n examples over six features: three from the
// alphabet {0, 1, 2}, a constant, and two continuous ones. Every fourth
// row repeats the features of the row before it under a label of its own,
// and with nan set row n/2 has a NaN in feature 4.
func alphabetData(n int, nan bool, seed int64) *ml.Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &ml.Dataset{FeatureNames: []string{"a", "b", "c", "const", "x", "y"}}
	for i := 0; i < n; i++ {
		f := []float64{float64(rng.Intn(3)), float64(rng.Intn(3)), float64(rng.Intn(3)), 7, rng.NormFloat64(), rng.Float64()}
		if i%4 == 3 {
			f = slices.Clone(d.Examples[i-1].Features)
		}
		if nan && i == n/2 {
			f[4] = math.NaN()
		}
		d.Examples = append(d.Examples, ml.Example{Name: fmt.Sprintf("l%d", i), Features: f, Label: 1 + rng.Intn(4)})
	}
	return d
}

// subsetError is the reference score of a feature subset: 1 − accuracy of
// the oracle LOOCV on the projected dataset.
func subsetError(d *ml.Dataset, feats []int, tr *Trainer) float64 {
	sub := d.Select(feats)
	return 1 - ml.Accuracy(sub, oracleLOOCV(sub, tr.radius(), tr.OneNN))
}

// checkRounds drives every greedy round of sess, a session over d or over
// a copy of it, requiring every candidate's score to equal subsetError to
// the bit and committing the lowest-index minimum as greedy does. In 1-NN
// mode it returns how many (row, candidate) pairs had their true nearest
// neighbor outside the row's threshold set, where only the full-scan
// fallback gets the answer right.
func checkRounds(t *testing.T, name string, d *ml.Dataset, tr *Trainer, sess ml.SelectSession) (outside int) {
	t.Helper()
	var chosen []int
	dim := d.Dim()
	rows := ml.FitNorm(d.Columns()).ApplyAll(d)
	for round := 0; round < dim; round++ {
		var cands []int
		for f := 0; f < dim; f++ {
			if !slices.Contains(chosen, f) {
				cands = append(cands, f)
			}
		}
		scores := make([]float64, len(cands))
		if err := sess.Round(chosen, cands, scores); err != nil {
			t.Fatalf("%s round %d: %v", name, round, err)
		}
		best := 0
		for c, f := range cands {
			feats := append(slices.Clone(chosen), f)
			if want := subsetError(d, feats, tr); math.Float64bits(scores[c]) != math.Float64bits(want) {
				t.Fatalf("%s oneNN=%v round %d feature %d: session %v, oracle %v", name, tr.OneNN, round, f, scores[c], want)
			}
			if scores[c] < scores[best] {
				best = c
			}
			if tr.OneNN && len(chosen) > 0 {
				outside += nearestOutside(rows, chosen, feats)
			}
		}
		if err := sess.Commit(cands[best]); err != nil {
			t.Fatal(err)
		}
		chosen = append(chosen, cands[best])
	}
	return outside
}

// nearestOutside counts the rows whose first-index nearest neighbor over
// feats lies outside the threshold set built from the committed features.
func nearestOutside(rows [][]float64, committed, feats []int) int {
	project := func(idx []int) [][]float64 {
		out := make([][]float64, len(rows))
		for i, r := range rows {
			for _, f := range idx {
				out[i] = append(out[i], r[f])
			}
		}
		return out
	}
	byCommitted, byFeats := project(committed), project(feats)
	count := 0
	base := make([]float64, len(rows))
	for i := range rows {
		nearest, nearestD := -1, math.Inf(1)
		for j := range rows {
			base[j] = linalg.SqDist(byCommitted[i], byCommitted[j])
			if d2 := linalg.SqDist(byFeats[i], byFeats[j]); j != i && d2 < nearestD {
				nearest, nearestD = j, d2
			}
		}
		if nearest >= 0 && base[nearest] > threshold(base, i) {
			count++
		}
	}
	return count
}

// TestSelectSessionMatchesSubsetScoring checks that the session's round
// scores equal the oracle LOOCV error of every projected subset, bit for
// bit, over every round of clustered data and of data with a 3-value
// alphabet, duplicate rows, a constant column and a NaN, from 2 to 300
// rows and in both voting modes. Some rows must have their true nearest
// neighbor outside the threshold set, so a missing full-scan fallback
// fails.
func TestSelectSessionMatchesSubsetScoring(t *testing.T) {
	sets := map[string]*ml.Dataset{"clusters": mltest.Clusters(90, 6, 4, 0.3, 11)}
	for _, n := range []int{2, 3, 17, 300} {
		sets[fmt.Sprintf("alphabet n=%d", n)] = alphabetData(n, false, int64(n))
		sets[fmt.Sprintf("alphabet+NaN n=%d", n)] = alphabetData(n, true, int64(n))
	}
	outside := 0
	for name, d := range sets {
		for _, oneNN := range []bool{false, true} {
			tr := &Trainer{OneNN: oneNN}
			sess, err := tr.BeginSelect(d)
			if err != nil {
				t.Fatal(err)
			}
			outside += checkRounds(t, name, d, tr, sess)
		}
	}
	if outside == 0 {
		t.Fatal("no row had its nearest neighbor outside its threshold set; the fallback went untested")
	}
	t.Logf("%d (row, candidate) pairs decided by the full-scan fallback's case", outside)
}

// TestSelectRoundParallelMatchesSerial scores every round at pool widths 1
// and 3: the scores must be bit-identical.
func TestSelectRoundParallelMatchesSerial(t *testing.T) {
	for name, d := range map[string]*ml.Dataset{
		"clusters": mltest.Clusters(300, 6, 4, 0.3, 5),
		"alphabet": alphabetData(300, true, 9),
	} {
		for _, oneNN := range []bool{false, true} {
			tr := &Trainer{OneNN: oneNN}
			var runs [2][][]float64
			for r, width := range []int{1, 3} {
				restore := par.SetLimit(width)
				sess, err := tr.BeginSelect(d)
				if err != nil {
					t.Fatal(err)
				}
				var chosen []int
				for round := 0; round < 4; round++ {
					var cands []int
					for f := 0; f < d.Dim(); f++ {
						if !slices.Contains(chosen, f) {
							cands = append(cands, f)
						}
					}
					scores := make([]float64, len(cands))
					if err := sess.Round(chosen, cands, scores); err != nil {
						t.Fatal(err)
					}
					runs[r] = append(runs[r], scores)
					chosen = append(chosen, cands[round%len(cands)])
					if err := sess.Commit(chosen[round]); err != nil {
						t.Fatal(err)
					}
				}
				restore()
			}
			for round := range runs[0] {
				for c := range runs[0][round] {
					if a, b := runs[0][round][c], runs[1][round][c]; math.Float64bits(a) != math.Float64bits(b) {
						t.Fatalf("%s oneNN=%v round %d candidate %d: width 1 %v, width 3 %v", name, oneNN, round, c, a, b)
					}
				}
			}
		}
	}
}

// TestSelectSessionAllocatesNoMatrix bounds what a session allocates at
// n = 2,000 — BeginSelect, the first round, a commit and a pruned round —
// below 2·n² bytes. An n×n float64 matrix alone takes 8·n².
func TestSelectSessionAllocatesNoMatrix(t *testing.T) {
	const n = 2000
	d := mltest.Clusters(n, 6, 4, 0.3, 17)
	d.BuildColumns()
	for _, oneNN := range []bool{false, true} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sess, err := (&Trainer{OneNN: oneNN}).BeginSelect(d)
		if err != nil {
			t.Fatal(err)
		}
		scores := make([]float64, 6)
		if err := sess.Round(nil, []int{0, 1, 2, 3, 4, 5}, scores); err != nil {
			t.Fatal(err)
		}
		if err := sess.Commit(2); err != nil {
			t.Fatal(err)
		}
		if err := sess.Round([]int{2}, []int{0, 1, 3, 4, 5}, scores[:5]); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got >= 2*n*n {
			t.Errorf("oneNN=%v: session allocated %d bytes, want < %d", oneNN, got, 2*n*n)
		}
	}
}

// TestSelectRoundRejectsBadCalls covers Round's argument checks.
func TestSelectRoundRejectsBadCalls(t *testing.T) {
	sess, err := (&Trainer{}).BeginSelect(mltest.Clusters(20, 3, 2, 0.3, 1))
	if err != nil {
		t.Fatal(err)
	}
	for name, call := range map[string]func() error{
		"out of sync":     func() error { return sess.Round([]int{0}, []int{1}, make([]float64, 1)) },
		"score length":    func() error { return sess.Round(nil, []int{0, 1}, make([]float64, 1)) },
		"candidate range": func() error { return sess.Round(nil, []int{3}, make([]float64, 1)) },
		"commit range":    func() error { return sess.Commit(-1) },
	} {
		if call() == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

// FuzzSelectRoundMatchesOracle builds a dataset of 2 to 40 rows and 1 to 4
// features over an alphabet that includes NaN, commits features in an
// order the input picks, and requires every round's scores to equal the
// oracle's, in the voting mode the input picks.
func FuzzSelectRoundMatchesOracle(f *testing.F) {
	f.Add([]byte{15, 3, 0, 1, 2, 3, 4, 0, 1, 2, 0, 0, 1, 1, 2, 2, 4, 4, 3})
	f.Add([]byte{0, 7, 4, 4, 1, 2})
	f.Add([]byte{38, 2, 9, 1, 7, 3, 3, 0, 2, 2, 1, 0, 5, 8, 8, 1, 0})
	alphabet := []float64{0, 1, 2, 0.001, math.NaN()}
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		n := 2 + next()%39
		shape := next()
		dim, oneNN := 1+shape%4, shape&4 != 0
		d := &ml.Dataset{}
		for i := 0; i < n; i++ {
			feats := make([]float64, dim)
			for j := range feats {
				feats[j] = alphabet[next()%len(alphabet)]
			}
			d.Examples = append(d.Examples, ml.Example{Features: feats, Label: 1 + next()%4})
		}
		tr := &Trainer{OneNN: oneNN}
		sess, err := tr.BeginSelect(d)
		if err != nil {
			t.Fatal(err)
		}
		var chosen []int
		for round := 0; round < dim; round++ {
			var cands []int
			for f := 0; f < dim; f++ {
				if !slices.Contains(chosen, f) {
					cands = append(cands, f)
				}
			}
			scores := make([]float64, len(cands))
			if err := sess.Round(chosen, cands, scores); err != nil {
				t.Fatal(err)
			}
			for c, f := range cands {
				want := subsetError(d, append(slices.Clone(chosen), f), tr)
				if math.Float64bits(scores[c]) != math.Float64bits(want) {
					t.Fatalf("n=%d oneNN=%v chosen %v feature %d: session %v, oracle %v", n, oneNN, chosen, f, scores[c], want)
				}
			}
			pick := cands[next()%len(cands)]
			if err := sess.Commit(pick); err != nil {
				t.Fatal(err)
			}
			chosen = append(chosen, pick)
		}
	})
}
