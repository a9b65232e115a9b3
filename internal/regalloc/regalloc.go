// Package regalloc implements linear-scan register allocation over a
// scheduled loop body (Poletto & Sarkar). It assigns every value a
// physical register in its class (integer or floating point) or spills it,
// providing the simulator with an actual allocation rather than a pressure
// estimate — the register-file interaction the paper names as one of the
// systems unrolling perturbs.
package regalloc

import (
	"fmt"
	"slices"

	"metaopt/internal/analysis"
	"metaopt/internal/ir"
	"metaopt/internal/sched"
)

// NoReg marks a spilled value.
const NoReg = -1

// Unallocated marks an op that produces no register value (stores,
// branches) in Result.Reg.
const Unallocated = -2

// Interval is the live range of one value in the schedule.
type Interval struct {
	Op    int // producing op index (or -1 for a loop parameter)
	Start int
	End   int
	FP    bool
	Uses  int // number of uses (reload count if spilled)
}

// Result is a completed allocation.
type Result struct {
	// Reg maps producing-op index to its register number: NoReg if the
	// value is spilled, Unallocated if the op produces no value.
	// Parameters are not included (they pre-color the bottom of each
	// file). Indexed like Graph.Ops.
	Reg []int

	Intervals []Interval

	SpilledInt, SpilledFP int
	ReloadOps             int // loads inserted for spilled-value uses
	StoreOps              int // stores inserted at spilled-value defs

	// SpillCycles is the modeled per-body cost of the spill code.
	SpillCycles int

	// The linear scan's scratch, kept for the next RunInto.
	free   []int
	active []activeIv
}

// activeIv is an interval holding a register during the linear scan.
type activeIv struct {
	idx int // index into Intervals
	reg int
}

// Run allocates registers for a list-scheduled body.
func Run(s *sched.Schedule) *Result { return RunInto(new(Result), s) }

// RunInto is Run writing the allocation into res and returning it: res is
// overwritten, reusing the capacity of Reg, Intervals and the linear
// scan's scratch, so a warm res allocates nothing.
func RunInto(res *Result, s *sched.Schedule) *Result {
	g := s.Graph
	m := g.Mach
	length := s.Length
	if length < 1 {
		length = 1
	}

	// Parameters pre-color registers for the whole body.
	availInt, availFP := m.IntRegs, m.FPRegs
	for _, p := range g.Loop.Params {
		if p.Code != ir.OpParam {
			continue
		}
		if p.FP {
			availFP--
		} else {
			availInt--
		}
	}
	if availInt < 1 {
		availInt = 1
	}
	if availFP < 1 {
		availFP = 1
	}

	*res = Result{Reg: res.Reg[:0], Intervals: buildIntervals(res.Intervals[:0], s, length),
		free: res.free, active: res.active}
	for range g.Ops {
		res.Reg = append(res.Reg, Unallocated)
	}

	res.allocateClass(false, availInt)
	res.allocateClass(true, availFP)

	res.SpillCycles = res.StoreOps*m.StoreLat + res.ReloadOps*m.IntLoadLat
	return res
}

// buildIntervals appends to out the live intervals of the schedule:
// definition to last same-iteration use; loop-carried values stay live to
// the body end.
func buildIntervals(out []Interval, s *sched.Schedule, length int) []Interval {
	g := s.Graph
	for i, op := range g.Ops {
		if !op.Code.HasResult() {
			continue
		}
		iv := Interval{Op: i, Start: s.Cycle[i], End: s.Cycle[i], FP: op.FP}
		for _, e := range g.Out[i] {
			if e.Kind != analysis.EdgeData {
				continue
			}
			iv.Uses++
			if e.Dist > 0 {
				iv.End = length
				continue
			}
			if c := s.Cycle[e.To]; c > iv.End {
				iv.End = c
			}
		}
		out = append(out, iv)
	}
	// Stable sort by start cycle, tiebreak on op index (out is built in
	// ascending op order, so this matches the former reflection-based
	// stable sort without its closure allocations).
	slices.SortFunc(out, func(a, b Interval) int {
		if a.Start != b.Start {
			return a.Start - b.Start
		}
		return a.Op - b.Op
	})
	return out
}

// allocateClass runs linear scan over one register class.
func (r *Result) allocateClass(fp bool, regs int) {
	intervals := r.Intervals
	active := r.active[:0]
	free := r.free[:0]
	for k := regs - 1; k >= 0; k-- {
		free = append(free, k)
	}

	for i := range intervals {
		iv := &intervals[i]
		if iv.FP != fp {
			continue
		}
		// Expire the intervals that ended before this one starts.
		keep := active[:0]
		for _, a := range active {
			if intervals[a.idx].End >= iv.Start {
				keep = append(keep, a)
				continue
			}
			free = append(free, a.reg)
		}
		active = keep
		if len(free) > 0 {
			reg := free[len(free)-1]
			free = free[:len(free)-1]
			r.Reg[iv.Op] = reg
			active = append(active, activeIv{idx: i, reg: reg})
			continue
		}
		// Spill the interval that ends furthest in the future.
		victim := -1
		for k, a := range active {
			if victim < 0 || intervals[a.idx].End > intervals[active[victim].idx].End {
				victim = k
			}
		}
		if victim >= 0 && intervals[active[victim].idx].End > iv.End {
			// Steal the victim's register; the victim spills.
			v := active[victim]
			r.spill(&intervals[v.idx], fp)
			r.Reg[iv.Op] = v.reg
			active[victim] = activeIv{idx: i, reg: v.reg}
		} else {
			r.spill(iv, fp)
		}
	}
	r.free, r.active = free, active
}

func (r *Result) spill(iv *Interval, fp bool) {
	r.Reg[iv.Op] = NoReg
	if fp {
		r.SpilledFP++
	} else {
		r.SpilledInt++
	}
	r.StoreOps++
	r.ReloadOps += iv.Uses
}

// Verify checks the fundamental allocation invariant: two values of the
// same class with overlapping live intervals never share a register.
func (r *Result) Verify() error {
	for a := 0; a < len(r.Intervals); a++ {
		ia := r.Intervals[a]
		ra := r.Reg[ia.Op]
		if ra == NoReg || ra == Unallocated {
			continue
		}
		for b := a + 1; b < len(r.Intervals); b++ {
			ib := r.Intervals[b]
			rb := r.Reg[ib.Op]
			if rb == NoReg || rb == Unallocated || ia.FP != ib.FP || ra != rb {
				continue
			}
			if ia.Start <= ib.End && ib.Start <= ia.End {
				return fmt.Errorf("regalloc: values v%d and v%d share %s register r%d over [%d,%d]∩[%d,%d]",
					ia.Op, ib.Op, className(ia.FP), ra, ia.Start, ia.End, ib.Start, ib.End)
			}
		}
	}
	return nil
}

func className(fp bool) string {
	if fp {
		return "fp"
	}
	return "int"
}

// MaxReg returns the highest register number used in the class, or -1.
func (r *Result) MaxReg(fp bool) int {
	best := -1
	for _, iv := range r.Intervals {
		if iv.FP != fp {
			continue
		}
		if reg := r.Reg[iv.Op]; reg > best {
			best = reg
		}
	}
	return best
}
