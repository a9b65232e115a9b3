package heuristic

import (
	"testing"

	"metaopt/internal/analysis"
	"metaopt/internal/ir"
	"metaopt/internal/loopgen"
	"metaopt/internal/machine"
	"metaopt/internal/transform"
)

// refSWP is the reference form of SWP: every score unrolls the loop and
// builds the unrolled body's dependence graph to read its resource bound,
// and the final pass scores every factor again.
func refSWP(l *ir.Loop, m *machine.Desc) int {
	if hasCall(l) || l.EarlyExit {
		return NoSWP(l, m)
	}
	rolled := analysis.Build(l, m)
	recN, recD := rolled.RecurrenceRatioExcluding(isIVUpdate)
	sh := rolled.Shape()
	score := func(u int) float64 {
		body, _, err := transform.Unroll(l, u)
		if err != nil {
			return 1e18
		}
		g := analysis.Build(body, m)
		resN, resD := g.ResMII()
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
		trip := l.TripCount
		rem := 0
		if trip > 0 {
			rem = trip % u
		} else {
			trip = 100
		}
		fixed := float64(4*ii) + float64(m.CodeBytes(len(body.Body)))/64*float64(m.L1IMissCycles)/2
		fixed += float64(rem * sh.CycleLength)
		s += fixed / float64(trip)
		return s
	}
	best := score(1)
	for u := 2; u <= transform.MaxFactor; u++ {
		if s := score(u); s < best {
			best = s
		}
	}
	for u := 1; u <= transform.MaxFactor; u++ {
		if score(u) <= best*1.04+1e-9 {
			return u
		}
	}
	return 1
}

// TestSWPMatchesParent pins SWP, which scores each factor once from the
// unrolled body's ops, to the reference on every loop of the seed-2005
// corpus at scale 0.1, on all three machine models.
func TestSWPMatchesParent(t *testing.T) {
	c, err := loopgen.Generate(loopgen.Options{Seed: 2005, LoopsScale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []*machine.Desc{machine.Itanium2(), machine.Embedded(), machine.Wide()} {
		var hist [transform.MaxFactor + 1]int
		for _, b := range c.Benchmarks {
			for _, l := range b.Loops {
				got, want := SWP(l, m), refSWP(l, m)
				if got != want {
					t.Fatalf("%s: %s/%s: SWP = %d, reference %d", m.Name, b.Name, l.Name, got, want)
				}
				hist[got]++
			}
		}
		t.Logf("%s: %d loops match; factors chosen %v", m.Name, c.TotalLoops(), hist[1:])
	}
}
