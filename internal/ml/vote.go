package ml

import "math"

// Vote is the near-neighbor decision rule, fed one exemplar at a time in
// database order. The query takes the label that a strict majority of the
// exemplars within the radius carry; a tie goes to the class whose closest
// exemplar is nearer. With no exemplar within the radius, and in 1-NN
// mode, it takes the label of the nearest exemplar, the first index at the
// smallest distance. Every near-neighbor query decides through it: the
// classifier's Predict and Confidence, dense and blocked LOOCV, the
// selection session, and the float32 batch path.
type Vote[T float32 | float64] struct {
	r2       T // squared radius; −1 in 1-NN mode, so that no exemplar votes
	oneNN    bool
	votes    [NumClasses + 1]int
	closest  [NumClasses + 1]T
	found    int
	nearest  int
	nearestD T
}

// Reset starts a new query with the given voting radius; oneNN decides by
// the nearest exemplar alone.
func (v *Vote[T]) Reset(radius float64, oneNN bool) {
	inf := T(math.Inf(1))
	*v = Vote[T]{r2: T(radius * radius), oneNN: oneNN, nearest: -1, nearestD: inf}
	if oneNN {
		v.r2 = -1
	}
	for i := range v.closest {
		v.closest[i] = inf
	}
}

// Observe folds in exemplar j, which carries label, at squared distance d2
// from the query. An exemplar votes only when d2 ≤ r², so one at a NaN
// distance neither votes nor is ever nearest.
func (v *Vote[T]) Observe(j, label int, d2 T) {
	if d2 < v.nearestD {
		v.nearest, v.nearestD = j, d2
	}
	if !(d2 <= v.r2) {
		return
	}
	v.found++
	v.votes[label]++
	if d2 < v.closest[label] {
		v.closest[label] = d2
	}
}

// Decide returns the query's label; labels maps exemplar indices to labels.
func (v *Vote[T]) Decide(labels []int) int {
	if v.oneNN || v.found == 0 {
		if v.nearest < 0 {
			return labels[0]
		}
		return labels[v.nearest]
	}
	best := 0
	for label := 1; label <= NumClasses; label++ {
		if v.votes[label] == 0 {
			continue
		}
		switch {
		case best == 0, v.votes[label] > v.votes[best]:
			best = label
		case v.votes[label] == v.votes[best] && v.closest[label] < v.closest[best]:
			best = label
		}
	}
	return best
}

// NearestDist returns the distance of the nearest exemplar seen so far
// (+Inf before any, and when every distance was NaN or +Inf).
func (v *Vote[T]) NearestDist() T {
	return v.nearestD
}

// Support reports how many exemplars fell within the radius and the share
// of them that carry the most common label (0 when none did).
func (v *Vote[T]) Support() (neighbors int, agreement float64) {
	if v.found == 0 {
		return 0, 0
	}
	most := 0
	for _, c := range v.votes {
		most = max(most, c)
	}
	return v.found, float64(most) / float64(v.found)
}

// VoteRow decides a query from its distances to every exemplar, skipping
// index exclude (−1 skips none).
func VoteRow[T float32 | float64](d2s []T, labels []int, exclude int, radius float64, oneNN bool) int {
	var v Vote[T]
	v.Reset(radius, oneNN)
	for j, d2 := range d2s {
		if j != exclude {
			v.Observe(j, labels[j], d2)
		}
	}
	return v.Decide(labels)
}

// NearestCodeword decodes per-bit decision values against an output code
// (codes[c] is the ±1 codeword of class c+1): the class whose codeword is
// closest in Hamming distance over the score signs wins, ties broken by the
// smaller total hinge loss.
func NearestCodeword(codes [][]int8, scores []float64) int {
	best := 1
	bestHam := math.MaxInt32
	bestLoss := math.Inf(1)
	for class := 1; class <= len(codes); class++ {
		ham := 0
		loss := 0.0
		for b, want := range codes[class-1] {
			s := scores[b]
			if (s >= 0) != (want > 0) {
				ham++
			}
			if m := 1 - float64(want)*s; m > 0 {
				loss += m
			}
		}
		if ham < bestHam || (ham == bestHam && loss < bestLoss) {
			best, bestHam, bestLoss = class, ham, loss
		}
	}
	return best
}

// RoundLabel rounds a real-valued prediction to the nearest label in
// [1, NumClasses].
func RoundLabel(v float64) int {
	return min(max(int(math.Round(v)), 1), NumClasses)
}
