package core

import (
	"metaopt/internal/heuristic"
	"metaopt/internal/ir"
	"metaopt/internal/machine"
	"metaopt/internal/ml"
)

// Choice picks an unroll factor for a loop at compile time.
type Choice func(l *ir.Loop) int

// HeuristicChoice wraps the hand-written baseline for the given mode.
func HeuristicChoice(swpOn bool, m *machine.Desc) Choice {
	if swpOn {
		return func(l *ir.Loop) int { return heuristic.SWP(l, m) }
	}
	return func(l *ir.Loop) int { return heuristic.NoSWP(l, m) }
}

// ClassifierChoice wraps a trained classifier: it takes the loop's full
// feature vector from vector, projects it onto the selected features, and
// predicts.
func ClassifierChoice(c ml.Classifier, vector func(*ir.Loop) []float64, featIdx []int) Choice {
	return func(l *ir.Loop) int {
		full := vector(l)
		v := full
		if featIdx != nil {
			v = make([]float64, len(featIdx))
			for k, j := range featIdx {
				v[k] = full[j]
			}
		}
		u := c.Predict(v)
		if u < 1 {
			u = 1
		}
		if u > ml.NumClasses {
			u = ml.NumClasses
		}
		return u
	}
}

// OracleChoice answers the measured-best factor for labeled loops and
// falls back for anything unlabeled.
func OracleChoice(lb *Labels, fallback Choice) Choice {
	return func(l *ir.Loop) int {
		if ll, ok := lb.ByLoop[l]; ok {
			return ll.Best
		}
		return fallback(l)
	}
}

// FixedChoice always answers u.
func FixedChoice(u int) Choice {
	return func(*ir.Loop) int { return u }
}
