// Package integration_test stress-tests cross-package invariants over
// randomly generated corpus loops: every loop must survive unrolling at
// every factor, produce verifiable schedules in both modes, and price
// consistently in the simulator.
package integration_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"metaopt/internal/analysis"
	"metaopt/internal/ir"
	"metaopt/internal/loopgen"
	"metaopt/internal/machine"
	"metaopt/internal/regalloc"
	"metaopt/internal/sched"
	"metaopt/internal/sim"
	"metaopt/internal/swp"
	"metaopt/internal/transform"
)

// loops returns a deterministic bag of generated loops.
func loops(t testing.TB, seed int64) []*ir.Loop {
	t.Helper()
	c, err := loopgen.Generate(loopgen.Options{Seed: seed, LoopsScale: 0.04})
	if err != nil {
		t.Fatal(err)
	}
	var out []*ir.Loop
	for _, b := range c.Benchmarks {
		out = append(out, b.Loops...)
	}
	return out
}

func TestUnrollPreservesValidity(t *testing.T) {
	for _, l := range loops(t, 21) {
		for u := 1; u <= transform.MaxFactor; u++ {
			out, info, err := transform.Unroll(l, u)
			if err != nil {
				t.Fatalf("%s/%s u=%d: %v", l.Benchmark, l.Name, u, err)
			}
			if err := out.Validate(); err != nil {
				t.Fatalf("%s/%s u=%d: %v", l.Benchmark, l.Name, u, err)
			}
			if info.U != u {
				t.Fatalf("info.U = %d", info.U)
			}
			// The unrolled body never has more than u copies of the
			// original ops plus the per-copy IV materializations.
			if max := u*l.NumOps() + u + 2; out.NumOps() > max {
				t.Fatalf("%s u=%d: %d ops exceeds bound %d", l.Name, u, out.NumOps(), max)
			}
		}
	}
}

func TestListSchedulesVerify(t *testing.T) {
	m := machine.Itanium2()
	for _, l := range loops(t, 22) {
		for _, u := range []int{1, 3, 8} {
			out, _, err := transform.Unroll(l, u)
			if err != nil {
				t.Fatal(err)
			}
			g := analysis.Build(out, m)
			s := sched.List(g)
			if err := s.Verify(); err != nil {
				t.Fatalf("%s/%s u=%d: %v", l.Benchmark, l.Name, u, err)
			}
			if s.Period < s.Length {
				t.Fatalf("%s u=%d: period %d < length %d", l.Name, u, s.Period, s.Length)
			}
			if err := regalloc.Run(s).Verify(); err != nil {
				t.Fatalf("%s/%s u=%d: %v", l.Benchmark, l.Name, u, err)
			}
		}
	}
}

// TestModuloSchedulesVerify pipelines every loop that can pipeline at
// every factor on two machines, from the II estimate the simulator starts
// its search at: every schedule must verify, and its II must respect the
// unrolled body's resource bound and the smallest II its recurrences
// admit, wherever the search started.
func TestModuloSchedulesVerify(t *testing.T) {
	for _, m := range []*machine.Desc{machine.Itanium2(), machine.Embedded()} {
		for _, l := range loops(t, 23) {
			if l.EarlyExit || hasCall(l) {
				continue // the pipeliner refuses these, as ORC does
			}
			rn, rd := analysis.Build(l.Clone(), m).RecurrenceRatioExcluding(isIVUpdate)
			for u := 1; u <= transform.MaxFactor; u++ {
				out, _, err := transform.Unroll(l, u)
				if err != nil {
					t.Fatal(err)
				}
				g := analysis.Build(out, m)
				mii := pipelineMII(g, u, rn, rd)
				r, err := swp.Schedule(g, mii)
				if err != nil {
					t.Fatalf("%s: %s/%s u=%d: %v", m.Name, l.Benchmark, l.Name, u, err)
				}
				if err := r.Verify(g); err != nil {
					t.Fatalf("%s: %s/%s u=%d: %v", m.Name, l.Benchmark, l.Name, u, err)
				}
				if num, den := g.ResMII(); r.II < (num+den-1)/den {
					t.Fatalf("%s: %s/%s u=%d: II %d beats ResMII %d/%d", m.Name, l.Benchmark, l.Name, u, r.II, num, den)
				}
				if rec := g.MinFeasibleII(1, 4*mii+65); r.II < rec {
					t.Fatalf("%s: %s/%s u=%d: II %d beats the recurrence bound %d", m.Name, l.Benchmark, l.Name, u, r.II, rec)
				}
			}
		}
	}
}

// pipelineMII restates the simulator's modulo-scheduling start: the
// resource bound, or the rolled body's recurrence ratio (less the
// induction update) scaled by u.
func pipelineMII(g *analysis.Graph, u, rn, rd int) int {
	num, den := g.ResMII()
	mii := (num + den - 1) / den
	if rd > 0 && rn > 0 {
		mii = max(mii, (u*rn+rd-1)/rd)
	}
	return max(mii, 1)
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

func TestSimulatorConsistency(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Noise = 0
	cfg.BiasNoise = 0
	tm := sim.NewTimer(cfg)
	for _, l := range loops(t, 24) {
		var prev int64
		for u := 1; u <= transform.MaxFactor; u++ {
			c, err := tm.Cycles(l, u)
			if err != nil {
				t.Fatalf("%s/%s u=%d: %v", l.Benchmark, l.Name, u, err)
			}
			if c <= 0 {
				t.Fatalf("%s u=%d: %d cycles", l.Name, u, c)
			}
			// No factor should be implausibly cheap relative to u=1: the
			// work per iteration bounds the possible speedup.
			if u > 1 && prev > 0 && c*20 < prev {
				t.Fatalf("%s u=%d: %d vs u1 %d — speedup beyond plausibility", l.Name, u, c, prev)
			}
			if u == 1 {
				prev = c
			}
		}
	}
}

func TestMeasurementDeterminismAcrossTimers(t *testing.T) {
	ls := loops(t, 25)
	cfgA := sim.DefaultConfig()
	cfgB := sim.DefaultConfig()
	a := sim.NewTimer(cfgA)
	b := sim.NewTimer(cfgB)
	rngA := rand.New(rand.NewSource(9))
	rngB := rand.New(rand.NewSource(9))
	for _, l := range ls[:20] {
		for u := 1; u <= 4; u++ {
			ca, err := a.MeasureScaled(l, u, rngA, 1)
			if err != nil {
				t.Fatal(err)
			}
			cb, err := b.MeasureScaled(l, u, rngB, 1)
			if err != nil {
				t.Fatal(err)
			}
			if ca != cb {
				t.Fatalf("%s u=%d: %d vs %d — measurement not reproducible", l.Name, u, ca, cb)
			}
		}
	}
}

// TestScheduleLengthMonotonicity: adding more copies never shortens the
// absolute schedule (though per-iteration cost falls).
func TestScheduleLengthMonotonicity(t *testing.T) {
	m := machine.Itanium2()
	f := func(seed int64) bool {
		ls := loops(t, 26)
		l := ls[int(uint64(seed)%uint64(len(ls)))]
		u1, _, err := transform.Unroll(l, 2)
		if err != nil {
			return false
		}
		u2, _, err := transform.Unroll(l, 8)
		if err != nil {
			return false
		}
		s1 := sched.List(analysis.Build(u1, m))
		s2 := sched.List(analysis.Build(u2, m))
		return s2.Length >= s1.Length
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func hasCall(l *ir.Loop) bool {
	return l.Count(func(o *ir.Op) bool { return o.Code == ir.OpCall }) > 0
}
