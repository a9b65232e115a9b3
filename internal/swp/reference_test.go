package swp

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"metaopt/internal/analysis"
	"metaopt/internal/ir"
	"metaopt/internal/loopgen"
	"metaopt/internal/machine"
	"metaopt/internal/transform"
)

// refSchedule is the reference II search: it tries every II from mii in
// turn through refTryII, the plain iterative modulo scheduler. Schedule
// must return exactly what it returns.
func refSchedule(g *analysis.Graph, mii int) (*Result, error) {
	if len(g.Ops) == 0 {
		return &Result{II: 1, Stages: 1}, nil
	}
	if mii < 1 {
		mii = 1
	}
	maxII := 4*mii + 64
	for ii := mii; ii <= maxII; ii++ {
		cycles, ok := refTryII(g, ii)
		if !ok {
			continue
		}
		res := finish(g, ii, cycles)
		if res.SpillCycles == 0 || ii == maxII || ii >= mii+8 {
			return res, nil
		}
	}
	return nil, fmt.Errorf("swp: %s: no feasible II in [%d,%d]", g.Loop.Name, mii, maxII)
}

// refTryII is one scheduling pass at ii with fresh state: it derives the
// height priority and its order on every call, and a forced placement
// finds what to evict by scanning every op through conflicts.
func refTryII(g *analysis.Graph, ii int) ([]int, bool) {
	n := len(g.Ops)
	m := g.Mach
	height := make([]int, n)
	for i := n - 1; i >= 0; i-- {
		height[i] = m.Latency(g.Ops[i])
		for _, e := range g.Out[i] {
			if e.Dist == 0 && e.Lat+height[e.To] > height[i] {
				height[i] = e.Lat + height[e.To]
			}
		}
	}
	cycle := make([]int, n)
	placed := make([]bool, n)
	prevTime := make([]int, n)
	for i := range prevTime {
		prevTime[i] = -1
	}
	var unitUse [machine.NumUnitKinds][]int
	for k := range unitUse {
		unitUse[k] = make([]int, ii)
	}
	issueUse := make([]int, ii)
	reserve := func(op, at int, dir int) {
		kind := m.UnitFor(g.Ops[op].Code)
		for j := 0; j < m.BlockCycles(g.Ops[op].Code); j++ {
			unitUse[kind][(at+j)%ii] += dir
		}
		issueUse[at%ii] += dir
	}
	fits := func(op, at int) bool {
		kind := m.UnitFor(g.Ops[op].Code)
		if issueUse[at%ii] >= m.IssueWidth {
			return false
		}
		block := m.BlockCycles(g.Ops[op].Code)
		for j := 0; j < min(block, ii); j++ {
			if unitUse[kind][(at+j)%ii]+(block-1-j)/ii+1 > m.Units[kind] {
				return false
			}
		}
		return true
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return height[b] - height[a] })

	work := order
	for head, budget := 0, n*16; head < len(work); head++ {
		if budget--; budget < 0 {
			return nil, false
		}
		op := work[head]
		estart := 0
		for _, e := range g.In[op] {
			if placed[e.From] {
				estart = max(estart, cycle[e.From]+e.Lat-ii*e.Dist)
			}
		}
		at, forced := -1, false
		for t := estart; t < estart+ii; t++ {
			if fits(op, t) {
				at = t
				break
			}
		}
		if at < 0 {
			at, forced = estart, true
		}
		if at <= prevTime[op] {
			at, forced = prevTime[op]+1, true
		}
		if forced {
			for other := 0; other < n; other++ {
				if placed[other] && conflicts(g, m, ii, other, cycle[other], op, at) {
					reserve(other, cycle[other], -1)
					placed[other] = false
					work = append(work, other)
				}
			}
		}
		cycle[op], prevTime[op], placed[op] = at, at, true
		reserve(op, at, +1)
		for _, e := range g.Out[op] {
			if placed[e.To] && e.To != op && cycle[op]+e.Lat-ii*e.Dist > cycle[e.To] {
				reserve(e.To, cycle[e.To], -1)
				placed[e.To] = false
				work = append(work, e.To)
			}
		}
		for _, e := range g.In[op] {
			if placed[e.From] && e.From != op && cycle[e.From]+e.Lat-ii*e.Dist > cycle[op] {
				reserve(e.From, cycle[e.From], -1)
				placed[e.From] = false
				work = append(work, e.From)
			}
		}
	}
	if (&Result{II: ii, Cycle: cycle}).Verify(g) != nil {
		return nil, false
	}
	first := slices.Min(cycle)
	out := make([]int, n)
	for i, c := range cycle {
		out[i] = c - first
	}
	return out, true
}

// conflicts reports whether two placed ops collide on a functional unit or
// issue slot in the modulo reservation table.
func conflicts(g *analysis.Graph, m *machine.Desc, ii int, a, aCyc, b, bCyc int) bool {
	if a == b {
		return false
	}
	if aCyc%ii == bCyc%ii && issueLimited(m) {
		return true
	}
	if m.UnitFor(g.Ops[a].Code) != m.UnitFor(g.Ops[b].Code) {
		return false
	}
	for i := 0; i < m.BlockCycles(g.Ops[a].Code); i++ {
		for j := 0; j < m.BlockCycles(g.Ops[b].Code); j++ {
			if (aCyc+i)%ii == (bCyc+j)%ii {
				return true
			}
		}
	}
	return false
}

// searchCase is one Schedule call of the sample: a body, its machine and
// the II the search starts from.
type searchCase struct {
	name string
	g    *analysis.Graph
	mii  int
}

// searchMachines are the machines of the sample: a wide one, and the
// narrow one on which issue-slot conflicts also evict.
var searchMachines = []*machine.Desc{machine.Itanium2(), machine.Embedded()}

// searchSample returns every loop of the seed-2005 corpus at scale 0.1,
// alias-conservative C loops included, unrolled by 1–8 for machine m, each
// from two starting IIs: the resource bound alone, and the estimate sim
// passes (the rolled body's recurrence ratio, less the induction update,
// scaled by u).
func searchSample(t *testing.T, m *machine.Desc) []searchCase {
	t.Helper()
	c, err := loopgen.Generate(loopgen.Options{Seed: 2005, LoopsScale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	ivUpdate := func(op *ir.Op) bool {
		return op.Code == ir.OpAdd && slices.ContainsFunc(op.Args, func(a ir.ArgRef) bool {
			return a.Op == op && a.Dist == 1
		})
	}
	var cases []searchCase
	for _, b := range c.Benchmarks {
		for _, l := range b.Loops {
			rn, rd := analysis.Build(l.Clone(), m).RecurrenceRatioExcluding(ivUpdate)
			for u := 1; u <= transform.MaxFactor; u++ {
				ul, _, err := transform.Unroll(l, u)
				if err != nil {
					t.Fatalf("%s/%s u=%d: %v", b.Name, l.Name, u, err)
				}
				g := analysis.Build(ul, m)
				num, den := g.ResMII()
				resMII := (num + den - 1) / den
				simMII := resMII
				if rn > 0 && rd > 0 {
					simMII = max(simMII, (u*rn+rd-1)/rd)
				}
				name := fmt.Sprintf("%s/%s/u%d", b.Name, l.Name, u)
				cases = append(cases, searchCase{name + "/res", g, resMII})
				if simMII != resMII {
					cases = append(cases, searchCase{name + "/sim", g, simMII})
				}
			}
		}
	}
	return cases
}

// TestScheduleMatchesParentSearch pins Schedule — the recurrence jump, the
// register-bound skip, the slot-occupant eviction and the once-per-call
// priority — to the reference search: the same Result and the same error
// on every case of the sample.
func TestScheduleMatchesParentSearch(t *testing.T) {
	for _, m := range searchMachines {
		t.Run(m.Name, func(t *testing.T) {
			t.Parallel()
			cases := searchSample(t, m)
			st := new(state)
			jumped, skipped := 0, 0
			for _, c := range cases {
				want, wantErr := refSchedule(c.g, c.mii)
				got, gotErr := Schedule(c.g, c.mii)
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
					t.Fatalf("%s (mii %d): Schedule = %+v, %v; reference %+v, %v", c.name, c.mii, got, gotErr, want, wantErr)
				}
				if c.g.MinFeasibleII(c.mii, 4*c.mii+65) > c.mii+1 {
					jumped++
				}
				if spillFreeII(c.g, st, c.mii, c.mii+8) > c.mii {
					skipped++
				}
			}
			if jumped == 0 {
				t.Fatal("no case starts below its recurrence bound; the sample does not exercise the jump")
			}
			if skipped == 0 {
				t.Fatal("no case starts below its register bound; the sample does not exercise the skip")
			}
			t.Logf("%d schedules match, %d start below the recurrence bound, %d below the register bound",
				len(cases), jumped, skipped)
		})
	}
}

// TestSpillBoundIsSound checks the premise of the register-bound skip on
// the same sample: at every II below the one spillFreeII returns, each
// schedule tryII accepts spills, and its register demand is at least the
// bound.
func TestSpillBoundIsSound(t *testing.T) {
	for _, m := range searchMachines {
		t.Run(m.Name, func(t *testing.T) {
			t.Parallel()
			st := new(state)
			ruledOut, scheduled := 0, 0
			for _, c := range searchSample(t, m) {
				prioritize(c.g, st)
				start := spillFreeII(c.g, st, c.mii, c.mii+8)
				paramsFP, paramsInt := 0, 0
				for _, p := range c.g.Loop.Params {
					if p.Code != ir.OpParam {
						continue
					}
					if p.FP {
						paramsFP++
					} else {
						paramsInt++
					}
				}
				for ii := c.mii; ii < start; ii++ {
					ruledOut++
					cycles, ok := tryII(c.g, ii, st)
					if !ok {
						continue
					}
					scheduled++
					res := finish(c.g, ii, cycles)
					if res.SpillCycles == 0 {
						t.Fatalf("%s: the register bound rules out II %d, but its schedule needs %d FP and %d integer registers without spilling",
							c.name, ii, res.RegsFP, res.RegsInt)
					}
					if fp, integer := minRegs(st.latFP, ii)+paramsFP, minRegs(st.latInt, ii)+paramsInt; res.RegsFP < fp || res.RegsInt < integer {
						t.Fatalf("%s: II %d needs %d FP and %d integer registers, below the bound's %d and %d",
							c.name, ii, res.RegsFP, res.RegsInt, fp, integer)
					}
				}
			}
			if scheduled == 0 {
				t.Fatal("no schedule at an II the register bound rules out; the sample does not exercise the bound")
			}
			t.Logf("%d IIs ruled out by the register bound, %d of them scheduled, every one spilling", ruledOut, scheduled)
		})
	}
}

// TestTryIIFailsBelowRecurrenceBound checks the premise of the jump on the
// same sample: tryII fails at every II the recurrences rule out.
func TestTryIIFailsBelowRecurrenceBound(t *testing.T) {
	for _, m := range searchMachines {
		t.Run(m.Name, func(t *testing.T) {
			t.Parallel()
			st := new(state)
			checked := 0
			for _, c := range searchSample(t, m) {
				prioritize(c.g, st)
				bound := c.g.MinFeasibleII(c.mii, 4*c.mii+65)
				for ii := c.mii; ii < bound; ii++ {
					if _, ok := tryII(c.g, ii, st); ok {
						t.Fatalf("%s: tryII succeeds at II %d, below the recurrence bound %d", c.name, ii, bound)
					}
					checked++
				}
			}
			if checked == 0 {
				t.Fatal("no II below a recurrence bound in the sample")
			}
			t.Logf("%d attempts below the recurrence bound fail", checked)
		})
	}
}
