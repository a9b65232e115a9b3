package regalloc

import (
	"slices"
	"testing"

	"metaopt/internal/analysis"
	"metaopt/internal/ir"
	"metaopt/internal/lang"
	"metaopt/internal/loopgen"
	"metaopt/internal/machine"
	"metaopt/internal/sched"
	"metaopt/internal/transform"
)

func schedOf(t *testing.T, src string, u int, m *machine.Desc) *sched.Schedule {
	t.Helper()
	k, err := lang.ParseKernel(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	l, err := lang.Lower(k)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	if u > 1 {
		l, _, err = transform.Unroll(l, u)
		if err != nil {
			t.Fatal(err)
		}
	}
	return sched.List(analysis.Build(l, m))
}

const daxpy = `
kernel daxpy lang=c {
	param double a;
	double x[], y[];
	noalias;
	for i = 0 .. 4096 { y[i] = y[i] + a * x[i]; }
}`

func TestDaxpyAllocatesWithoutSpills(t *testing.T) {
	s := schedOf(t, daxpy, 8, machine.Itanium2())
	r := Run(s)
	if err := r.Verify(); err != nil {
		t.Fatal(err)
	}
	if r.SpilledInt+r.SpilledFP != 0 {
		t.Errorf("daxpy u8 spilled %d/%d values on Itanium 2", r.SpilledInt, r.SpilledFP)
	}
	if r.SpillCycles != 0 {
		t.Errorf("spill cycles = %d", r.SpillCycles)
	}
	// Every defined value got a register.
	for _, iv := range r.Intervals {
		if reg := r.Reg[iv.Op]; reg == NoReg || reg == Unallocated {
			t.Fatalf("value v%d unallocated", iv.Op)
		}
	}
}

func TestTinyRegisterFileSpills(t *testing.T) {
	m := machine.Itanium2()
	tiny := *m
	tiny.FPRegs = 4
	s := schedOf(t, `
kernel wide lang=fortran {
	double a[], b[], c[], d[], e[], f[], g[], h[], o[];
	for i = 0 .. 100 {
		o[i] = a[i]*b[i] + c[i]*d[i] + e[i]*f[i] + g[i]*h[i];
	}
}`, 4, &tiny)
	r := Run(s)
	if err := r.Verify(); err != nil {
		t.Fatal(err)
	}
	if r.SpilledFP == 0 {
		t.Error("expected FP spills with 4 registers")
	}
	if r.SpillCycles <= 0 {
		t.Errorf("spill cycles = %d", r.SpillCycles)
	}
	if r.StoreOps != r.SpilledInt+r.SpilledFP {
		t.Errorf("stores %d != spilled values %d", r.StoreOps, r.SpilledInt+r.SpilledFP)
	}
	if r.ReloadOps < r.StoreOps {
		t.Errorf("reloads %d < stores %d: spilled values have uses", r.ReloadOps, r.StoreOps)
	}
}

// TestDaxpyPressure: the rolled daxpy body on Itanium 2 holds the FP
// parameter and a pipeline value in FP registers at once, the induction
// variable in an integer register, and spills nothing.
func TestDaxpyPressure(t *testing.T) {
	s := schedOf(t, daxpy, 1, machine.Itanium2())
	r := Run(s)
	if err := r.Verify(); err != nil {
		t.Fatal(err)
	}
	fpParams := 0
	for _, p := range s.Graph.Loop.Params {
		if p.Code == ir.OpParam && p.FP {
			fpParams++
		}
	}
	if fp := fpParams + r.MaxReg(true) + 1; fp < 2 {
		t.Errorf("fp registers = %d, want >= 2 (param a + pipeline values)", fp)
	}
	if n := r.MaxReg(false) + 1; n < 1 {
		t.Errorf("int registers = %d, want >= 1 (induction variable)", n)
	}
	if r.SpillCycles != 0 {
		t.Errorf("daxpy should not spill on Itanium 2, got %d cycles", r.SpillCycles)
	}
	sum := 0
	for _, iv := range r.Intervals {
		sum += iv.End - iv.Start
	}
	if sum <= 0 {
		t.Errorf("live range sum = %d", sum)
	}
}

// TestSmallMachineSpills: a loop with many simultaneously live FP values
// on a machine with a tiny FP register file must spill, and the spill
// cycles are the inserted stores and reloads at the machine's latencies.
func TestSmallMachineSpills(t *testing.T) {
	m := machine.Embedded()
	m.FPRegs = 4
	s := schedOf(t, `
kernel fat lang=fortran {
	double a[], b[], c[], d[], e[], f[], g[], h[], o[];
	for i = 0 .. 100 {
		o[i] = a[i]*b[i] + c[i]*d[i] + e[i]*f[i] + g[i]*h[i]
		     + a[i+1]*b[i+1] + c[i+1]*d[i+1] + e[i+1]*f[i+1] + g[i+1]*h[i+1];
	}
}`, 1, m)
	r := Run(s)
	if err := r.Verify(); err != nil {
		t.Fatal(err)
	}
	if r.SpilledFP == 0 {
		t.Errorf("expected FP spills, allocation = %+v", r)
	}
	if r.StoreOps != r.SpilledFP+r.SpilledInt {
		t.Errorf("stores %d != spilled values %d", r.StoreOps, r.SpilledFP+r.SpilledInt)
	}
	if r.SpillCycles != r.StoreOps*m.StoreLat+r.ReloadOps*m.IntLoadLat {
		t.Errorf("spill cycles inconsistent: %d for %d stores, %d reloads", r.SpillCycles, r.StoreOps, r.ReloadOps)
	}
}

func TestRegisterCountBoundedByFile(t *testing.T) {
	m := machine.Itanium2()
	s := schedOf(t, daxpy, 8, m)
	r := Run(s)
	if got := r.MaxReg(true); got >= m.FPRegs {
		t.Errorf("fp register %d out of file of %d", got, m.FPRegs)
	}
	if got := r.MaxReg(false); got >= m.IntRegs {
		t.Errorf("int register %d out of file of %d", got, m.IntRegs)
	}
}

// estimateSpills is the sweep-based MaxLive estimate of a schedule's
// spills: every value is live from its definition's issue cycle to its
// last same-iteration use, or to the body end when a later iteration reads
// it, and loop-invariant inputs are live throughout; each register file
// spills the values by which its peak live count exceeds it.
func estimateSpills(s *sched.Schedule) int {
	g := s.Graph
	length := max(s.Length, 1)
	var delta [2][]int // +1 at a live start, −1 after its end; int, then fp
	for f := range delta {
		delta[f] = make([]int, length+2)
	}
	live := func(from, to int, fp bool) {
		from, to = max(from, 0), min(to, length)
		f := 0
		if fp {
			f = 1
		}
		delta[f][from]++
		delta[f][max(to, from)+1]--
	}
	for _, p := range g.Loop.Params {
		if p.Code == ir.OpParam {
			live(0, length, p.FP)
		}
	}
	for i, op := range g.Ops {
		if !op.Code.HasResult() {
			continue
		}
		last := s.Cycle[i]
		for _, e := range g.Out[i] {
			switch {
			case e.Kind != analysis.EdgeData:
			case e.Dist > 0:
				last = length
			default:
				last = max(last, s.Cycle[e.To])
			}
		}
		live(s.Cycle[i], last, op.FP)
	}
	spills := 0
	for f, regs := range []int{g.Mach.IntRegs, g.Mach.FPRegs} {
		n, peak := 0, 0
		for _, d := range delta[f] {
			n += d
			peak = max(peak, n)
		}
		spills += max(peak-regs, 0)
	}
	return spills
}

// TestAgreesWithPressureEstimate: linear scan spills roughly when the
// sweep-based MaxLive estimate exceeds the file, never wildly differently.
func TestAgreesWithPressureEstimate(t *testing.T) {
	c, err := loopgen.Generate(loopgen.Options{Seed: 5, LoopsScale: 0.04})
	if err != nil {
		t.Fatal(err)
	}
	m := machine.Itanium2()
	small := *m
	small.FPRegs = 6
	small.IntRegs = 6
	for _, b := range c.Benchmarks[:24] {
		for _, l := range b.Loops {
			u8, _, err := transform.Unroll(l, 8)
			if err != nil {
				t.Fatal(err)
			}
			s := sched.List(analysis.Build(u8, &small))
			ra := Run(s)
			if err := ra.Verify(); err != nil {
				t.Fatalf("%s/%s: %v", b.Name, l.Name, err)
			}
			estimate := estimateSpills(s)
			actual := ra.SpilledInt + ra.SpilledFP
			if estimate == 0 && actual > 3 {
				t.Errorf("%s/%s: allocator spilled %d where estimate saw headroom", b.Name, l.Name, actual)
			}
			if estimate > 4 && actual == 0 {
				t.Errorf("%s/%s: estimate expected %d spills, allocator found none", b.Name, l.Name, estimate)
			}
		}
	}
}

// TestWiderLoopMoreRegisters: a body with more simultaneously live FP
// values takes more FP registers.
func TestWiderLoopMoreRegisters(t *testing.T) {
	wide := `
kernel wide lang=fortran {
	double a[], b[], c[], d[], e[], f[], o[];
	for i = 0 .. 100 { o[i] = a[i]*b[i] + c[i]*d[i] + e[i]*f[i]; }
}`
	m := machine.Itanium2()
	rd := Run(schedOf(t, daxpy, 1, m))
	rw := Run(schedOf(t, wide, 1, m))
	if rw.MaxReg(true) <= rd.MaxReg(true) {
		t.Errorf("wide loop's highest fp register %d <= daxpy's %d", rw.MaxReg(true), rd.MaxReg(true))
	}
}

// TestCarriedValueLiveToBodyEnd: a reduction's accumulator, read by the
// next iteration, holds its register to the end of the body.
func TestCarriedValueLiveToBodyEnd(t *testing.T) {
	s := schedOf(t, `
kernel red lang=fortran {
	double a[];
	double s;
	for i = 0 .. 100 { s = s + a[i]; }
}`, 1, machine.Itanium2())
	r := Run(s)
	carried := 0
	for _, iv := range r.Intervals {
		for _, e := range s.Graph.Out[iv.Op] {
			if e.Kind != analysis.EdgeData || e.Dist == 0 {
				continue
			}
			carried++
			if iv.End != max(s.Length, 1) {
				t.Errorf("carried v%d live over [%d,%d], body ends at %d", iv.Op, iv.Start, iv.End, s.Length)
			}
			if reg := r.Reg[iv.Op]; reg < 0 {
				t.Errorf("carried v%d got no register (%d)", iv.Op, reg)
			}
			break
		}
	}
	if carried == 0 {
		t.Fatal("the reduction carries no value to the next iteration")
	}
}

func TestVerifyCatchesCorruption(t *testing.T) {
	s := schedOf(t, daxpy, 4, machine.Itanium2())
	r := Run(s)
	// Force two overlapping same-class values into one register.
	var seen = -1
	for _, iv := range r.Intervals {
		if !iv.FP {
			continue
		}
		if seen < 0 {
			seen = iv.Op
			continue
		}
		r.Reg[iv.Op] = r.Reg[seen]
	}
	if err := r.Verify(); err == nil {
		t.Skip("no overlapping fp pair to corrupt in this schedule")
	}
}

func TestParamsReserveRegisters(t *testing.T) {
	m := machine.Itanium2()
	withParam := schedOf(t, daxpy, 1, m)
	r := Run(withParam)
	if err := r.Verify(); err != nil {
		t.Fatal(err)
	}
	// A machine with a single FP register and an FP param forces every FP
	// value to fight over the one remaining slot (the floor of one).
	one := *m
	one.FPRegs = 1
	s := schedOf(t, daxpy, 2, &one)
	r2 := Run(s)
	if err := r2.Verify(); err != nil {
		t.Fatal(err)
	}
	if r2.SpilledFP == 0 {
		t.Error("expected spills with a single FP register and an FP parameter")
	}
}

// TestRunIntoMatchesRun allocates every loop of the seed-2005 corpus at
// scale 0.1, at every factor, into one reused Result and compares it with
// a fresh Run. A register file of four per class makes most bodies spill.
func TestRunIntoMatchesRun(t *testing.T) {
	c, err := loopgen.Generate(loopgen.Options{Seed: 2005, LoopsScale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	tiny := *machine.Itanium2()
	tiny.IntRegs, tiny.FPRegs = 4, 4
	var reused Result
	spills := 0
	for _, m := range []*machine.Desc{machine.Itanium2(), &tiny} {
		for _, b := range c.Benchmarks {
			for _, l := range b.Loops {
				for u := transform.MaxFactor; u >= 1; u-- {
					ul, _, err := transform.Unroll(l, u)
					if err != nil {
						t.Fatal(err)
					}
					s := sched.List(analysis.Build(ul, m))
					want := Run(s)
					got := RunInto(&reused, s)
					if !slices.Equal(got.Reg, want.Reg) || !slices.Equal(got.Intervals, want.Intervals) ||
						got.SpilledInt != want.SpilledInt || got.SpilledFP != want.SpilledFP ||
						got.ReloadOps != want.ReloadOps || got.StoreOps != want.StoreOps || got.SpillCycles != want.SpillCycles {
						t.Fatalf("%s u=%d: RunInto %+v, Run %+v", l.Name, u, got, want)
					}
					spills += got.SpilledInt + got.SpilledFP
				}
			}
		}
	}
	if spills == 0 {
		t.Error("no loop spilled: the spill path went unchecked")
	}
}

// TestRunIntoZeroAllocs pins a warm Result at zero allocations.
func TestRunIntoZeroAllocs(t *testing.T) {
	s := schedOf(t, daxpy, 8, machine.Itanium2())
	var r Result
	RunInto(&r, s)
	if allocs := testing.AllocsPerRun(100, func() { RunInto(&r, s) }); allocs != 0 {
		t.Errorf("RunInto allocates %v per run, want 0", allocs)
	}
}
