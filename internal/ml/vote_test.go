package ml_test

import (
	"math"
	"testing"

	"metaopt/internal/ml"
)

// checkVote runs the vote's rule table in one float instantiation: each
// case is a hand-built distance row voted at radius 0.3.
func checkVote[T float32 | float64](t *testing.T) {
	t.Helper()
	for _, c := range []struct {
		name    string
		d2      []T
		labels  []int
		exclude int
		oneNN   bool
		want    int
	}{
		{"majority", []T{0.01, 0.02, 0.03, 0.5}, []int{1, 2, 2, 3}, -1, false, 2},
		{"majority beats a nearer exemplar", []T{0.001, 0.05, 0.06}, []int{5, 6, 6}, -1, false, 6},
		{"tie to the nearer class", []T{0.05, 0.02, 0.06, 0.07}, []int{1, 2, 1, 2}, -1, false, 2},
		{"tie to the nearer lower class", []T{0.01, 0.02, 0.06, 0.07}, []int{1, 2, 1, 2}, -1, false, 1},
		{"empty radius takes the first nearest", []T{0.5, 0.2, 0.2}, []int{3, 4, 5}, -1, false, 4},
		{"1-NN ignores the majority", []T{0.01, 0.02, 0.03}, []int{1, 2, 2}, -1, true, 1},
		{"1-NN takes the first nearest", []T{0.3, 0.1, 0.1}, []int{1, 2, 3}, -1, true, 2},
		{"excluded exemplar does not vote", []T{0, 0.02, 0.5}, []int{1, 2, 3}, 0, false, 2},
		{"excluded exemplar is not nearest", []T{0, 0.4, 0.5}, []int{1, 2, 3}, 0, true, 2},
		{"NaN distance does not vote", []T{T(math.NaN()), 0.02, T(math.NaN()), 0.5}, []int{3, 2, 3, 3}, -1, false, 2},
		{"NaN distance is not nearest", []T{T(math.NaN()), 0.5, 0.4}, []int{1, 2, 3}, -1, false, 3},
	} {
		if got := ml.VoteRow(c.d2, c.labels, c.exclude, 0.3, c.oneNN); got != c.want {
			t.Errorf("%T %s: label %d, want %d", c.d2[0], c.name, got, c.want)
		}
	}

	r := 0.3
	onRadius := T(r * r)
	if got := ml.VoteRow([]T{0.08, onRadius, onRadius}, []int{7, 4, 4}, -1, r, false); got != 4 {
		t.Errorf("%T radius is inclusive: label %d, want 4", T(0), got)
	}

	var v ml.Vote[T]
	v.Reset(0.3, false)
	for j, d2 := range []T{0.01, 0.02, 0.03, 0.5} {
		v.Observe(j, []int{1, 2, 2, 3}[j], d2)
	}
	if n, agree := v.Support(); n != 3 || agree != 2.0/3 {
		t.Errorf("%T support: %d neighbors agreeing %v, want 3 and 2/3", T(0), n, agree)
	}
	v.Reset(0.3, false)
	if n, agree := v.Support(); n != 0 || agree != 0 {
		t.Errorf("%T empty support: %d neighbors agreeing %v", T(0), n, agree)
	}
}

func TestVoteRules(t *testing.T) {
	checkVote[float32](t)
	checkVote[float64](t)
}
