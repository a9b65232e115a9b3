package regalloc

import (
	"slices"
	"testing"

	"metaopt/internal/analysis"
	"metaopt/internal/lang"
	"metaopt/internal/loopgen"
	"metaopt/internal/machine"
	"metaopt/internal/regpress"
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
			p := regpress.Analyze(s)
			estimate := p.SpillsInt + p.SpillsFP
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
