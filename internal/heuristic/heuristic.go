// Package heuristic provides the hand-written unroll-factor heuristics the
// learned classifiers are measured against. They stand in for ORC's two
// production heuristics: the simple size/trip-count rule used when software
// pipelining is off, and the carefully tuned model-based rule (205 lines of
// C++ in ORC 2.1) used when the software pipeliner is on.
package heuristic

import (
	"slices"

	"metaopt/internal/analysis"
	"metaopt/internal/ir"
	"metaopt/internal/machine"
	"metaopt/internal/transform"
)

// NoSWP is the baseline unrolling rule with software pipelining disabled.
// Like most production compilers, it keys primarily on the number of
// instructions in the loop body — the "de facto standard" feature the paper
// calls out — plus basic trip-count sanity.
func NoSWP(l *ir.Loop, m *machine.Desc) int {
	if hasCall(l) {
		return 1
	}
	if l.EarlyExit {
		// Replicated side exits eat into the benefit; hedge with a small
		// factor for compact bodies rather than refusing outright.
		if l.NumOps() <= 12 {
			return 2
		}
		return 1
	}
	if t := l.TripCount; t > 0 && t <= transform.MaxFactor {
		// Short known trip: unroll fully (the loop disappears).
		return t
	}
	// Size-based: grow the body toward a target window, in powers of two.
	const targetOps = 48
	u := 1
	for u*2 <= transform.MaxFactor && (u*2)*l.NumOps() <= targetOps {
		u *= 2
	}
	// Prefer dividing a known trip count to avoid remainder loops.
	if t := l.TripCount; t > 0 {
		for u > 1 && t%u != 0 {
			u /= 2
		}
	}
	return u
}

// SWP is the baseline rule with software pipelining enabled. It models the
// fractional-II reasoning of ORC's tuned heuristic: pick the factor whose
// per-iteration initiation interval estimate is lowest, discounting factors
// that blow up register pressure or code size.
func SWP(l *ir.Loop, m *machine.Desc) int {
	if hasCall(l) || l.EarlyExit {
		// The pipeliner refuses these loops; fall back to the plain rule.
		return NoSWP(l, m)
	}
	rolled := analysis.Build(l, m)
	recN, recD := rolled.RecurrenceRatioExcluding(isIVUpdate)
	sh := rolled.Shape()

	// Per-source-iteration II estimate at each unroll factor. The resource
	// bound comes from the *actual* unrolled-and-cleaned body, so the rule
	// sees load coalescing and folded overhead — the reasoning ORC's tuned
	// heuristic encoded by hand. Recurrences scale with the factor.
	score := func(u int) float64 {
		body, _, err := transform.Unroll(l, u)
		if err != nil {
			return 1e18
		}
		resN, resD := analysis.ResMIIOf(body.Body, m)
		ii := ceilDiv(resN, resD)
		if recD > 0 {
			if r := ceilDiv(u*recN, recD); r > ii {
				ii = r
			}
		}
		s := float64(ii) / float64(u)
		est := sh.LiveSum * u / maxInt(1, sh.CriticalPath)
		if est > m.RotatingRegs && m.RotatingRegs > 0 {
			s += float64(est-m.RotatingRegs) * 0.05
		}
		if bytes := m.CodeBytes(len(body.Body)); bytes > m.L1IBytes/4 {
			s += float64(bytes) / float64(m.L1IBytes)
		}
		// Per-entry fixed costs amortize over the trip count: pipeline
		// fill/drain, cold code, and the rolled tail loop. Short loops
		// cannot afford big factors.
		trip := l.TripCount
		rem := 0
		if trip > 0 {
			rem = trip % u
		} else {
			trip = 100 // conservative assumption for unknown bounds
		}
		fixed := float64(4*ii) + float64(m.CodeBytes(len(body.Body)))/64*float64(m.L1IMissCycles)/2
		fixed += float64(rem * sh.CycleLength)
		s += fixed / float64(trip)
		return s
	}
	var scores [transform.MaxFactor + 1]float64
	for u := 1; u <= transform.MaxFactor; u++ {
		scores[u] = score(u)
	}
	best := slices.Min(scores[1:])
	// Years of tuning taught ORC that unrolling a pipelined loop pays only
	// when the initiation-interval ratio genuinely improves: take the
	// SMALLEST factor within a whisker of the best achievable ratio.
	for u := 1; u <= transform.MaxFactor; u++ {
		if scores[u] <= best*1.04+1e-9 {
			return u
		}
	}
	return 1
}

// Fixed returns a heuristic that always answers the same factor (ablation
// baselines: "never unroll", "always unroll by 8").
func Fixed(u int) func(*ir.Loop, *machine.Desc) int {
	return func(*ir.Loop, *machine.Desc) int { return u }
}

func hasCall(l *ir.Loop) bool {
	return l.Count(func(o *ir.Op) bool { return o.Code == ir.OpCall }) > 0
}

func isIVUpdate(op *ir.Op) bool {
	if op.Code != ir.OpAdd {
		return false
	}
	for _, a := range op.Args {
		if a.Op == op && a.Dist == 1 {
			return true
		}
	}
	return false
}

func ceilDiv(a, b int) int {
	if b == 0 {
		return 0
	}
	return (a + b - 1) / b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
