// Package swp implements software pipelining by iterative modulo scheduling
// (Rau's IMS): it finds the smallest initiation interval II at which a new
// loop iteration can be started every II cycles under the machine's
// resource and recurrence constraints. Loop unrolling interacts with the
// pipeliner through fractional initiation intervals: a loop whose resource
// bound is 3/2 wastes half a cycle per iteration at II=2 rolled, but
// unrolled twice it runs at II=3 for two iterations — exactly the effect
// the paper's second experiment (Figure 5) measures.
package swp

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"metaopt/internal/analysis"
	"metaopt/internal/ir"
	"metaopt/internal/machine"
)

// state is the reusable scratch for one Schedule call. The II search calls
// tryII many times per loop and the labeler pipelines every candidate body,
// so the per-attempt slices are pooled; only the winning cycle assignment is
// copied out into the Result.
type state struct {
	height   []int
	cycle    []int
	prevTime []int
	order    []int
	work     []int
	placed   []bool
	unitUse  [machine.NumUnitKinds][]int
	finalUse [machine.NumUnitKinds][]int
	issueUse []int

	// Occupant sets of the modulo reservation table: a bitset of the placed
	// ops per (unit kind, modulo slot) and, where issueLimited holds, per
	// issue slot. Slot s's set is words [s·w, (s+1)·w), w = ⌈n/64⌉.
	unitOcc  [machine.NumUnitKinds][]uint64
	issueOcc []uint64

	// The register bound's inputs (spillFreeII): the largest data out-edge
	// latency of each result-producing op, per register file.
	latFP, latInt []int
}

var statePool = sync.Pool{New: func() any { return new(state) }}

// grow returns sl resliced to length n within capacity, zeroed, allocating
// only when capacity is insufficient.
func grow[T any](sl []T, n int) []T {
	if cap(sl) < n {
		return make([]T, n)
	}
	sl = sl[:n]
	clear(sl)
	return sl
}

// Result is a modulo schedule for one loop body.
type Result struct {
	II     int   // achieved initiation interval
	Cycle  []int // absolute issue cycle per op
	Stages int   // pipeline depth in stages of II cycles

	// Register demand under modulo variable expansion.
	RegsFP  int
	RegsInt int

	// SpillCycles is nonzero when the register files cannot hold the
	// pipelined values even at the maximum II attempted.
	SpillCycles int
}

// Schedule modulo-schedules the body of g, starting the II search at mii
// (callers pass the analysis MII estimate; the search self-corrects upward
// if the estimate is low, skipping the IIs g's recurrences rule out). It
// fails only for pathological inputs where no II up to the cap admits a
// schedule.
func Schedule(g *analysis.Graph, mii int) (*Result, error) {
	n := len(g.Ops)
	if n == 0 {
		return &Result{II: 1, Stages: 1}, nil
	}
	if mii < 1 {
		mii = 1
	}
	maxII := 4*mii + 64
	st := statePool.Get().(*state)
	defer statePool.Put(st)
	prioritize(g, st)
	// Below mii+8 a spilling schedule is discarded like a failed attempt,
	// so the search starts at the first II whose register bound fits.
	jumped := false
	for ii := spillFreeII(g, st, mii, mii+8); ii <= maxII; ii++ {
		cycles, ok := tryII(g, ii, st)
		if !ok {
			// A low estimate fails first on the recurrences: resume at
			// the smallest II they admit. tryII accepts only schedules
			// that satisfy every edge, so it fails at every II skipped.
			if !jumped {
				jumped = true
				ii = g.MinFeasibleII(ii+1, maxII+1) - 1
			}
			continue
		}
		res := finish(g, ii, cycles)
		if res.SpillCycles == 0 {
			return res, nil
		}
		// Register overflow: retry at a higher II (less overlap, fewer
		// simultaneously-live values).
		if ii == maxII {
			return res, nil
		}
		// Try a few higher IIs; if demand never fits, accept spills.
		if ii >= mii+8 {
			return res, nil
		}
	}
	return nil, fmt.Errorf("swp: %s: no feasible II in [%d,%d]", g.Loop.Name, mii, maxII)
}

// prioritize fills st.order with the worklist priority: height (the
// same-iteration critical path to sinks) descending, index ascending. It
// does not depend on the II, so Schedule computes it once for every attempt.
func prioritize(g *analysis.Graph, st *state) {
	n := len(g.Ops)
	m := g.Mach
	height := grow(st.height, n)
	st.height = height
	for i := n - 1; i >= 0; i-- {
		height[i] = m.Latency(g.Ops[i])
		for _, e := range g.Out[i] {
			if e.Dist != 0 {
				continue
			}
			if h := e.Lat + height[e.To]; h > height[i] {
				height[i] = h
			}
		}
	}
	order := grow(st.order, n)
	st.order = order
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if height[a] != height[b] {
			return height[b] - height[a]
		}
		return a - b
	})
}

// tryII attempts one iterative-modulo-scheduling pass at the given II
// using the pooled scratch state, in the priority order prioritize left.
func tryII(g *analysis.Graph, ii int, st *state) ([]int, bool) {
	n := len(g.Ops)
	m := g.Mach

	cycle := grow(st.cycle, n)
	placed := grow(st.placed, n)
	prevTime := grow(st.prevTime, n)
	st.cycle, st.placed, st.prevTime = cycle, placed, prevTime
	for i := range prevTime {
		prevTime[i] = -1
	}

	// Modulo reservation table: usage per unit kind per modulo slot, plus
	// issue slots, each with its set of occupants.
	w := (n + 63) / 64
	limited := issueLimited(m)
	unitUse, unitOcc := st.unitUse, st.unitOcc
	for k := range unitUse {
		unitUse[k] = grow(unitUse[k], ii)
		unitOcc[k] = grow(unitOcc[k], ii*w)
	}
	st.unitUse, st.unitOcc = unitUse, unitOcc
	issueUse := grow(st.issueUse, ii)
	st.issueUse = issueUse
	issueOcc := st.issueOcc
	if limited {
		issueOcc = grow(issueOcc, ii*w)
		st.issueOcc = issueOcc
	}

	reserve := func(op, at int, dir int) {
		kind := m.UnitFor(g.Ops[op].Code)
		word, bit := op/64, uint64(1)<<(op%64)
		for j := 0; j < m.BlockCycles(g.Ops[op].Code); j++ {
			slot := (at + j) % ii
			unitUse[kind][slot] += dir
			if dir > 0 {
				unitOcc[kind][slot*w+word] |= bit
			} else {
				unitOcc[kind][slot*w+word] &^= bit
			}
		}
		issueUse[at%ii] += dir
		if limited {
			if dir > 0 {
				issueOcc[at%ii*w+word] |= bit
			} else {
				issueOcc[at%ii*w+word] &^= bit
			}
		}
	}
	fits := func(op, at int) bool {
		kind := m.UnitFor(g.Ops[op].Code)
		if issueUse[at%ii] >= m.IssueWidth {
			return false
		}
		block := m.BlockCycles(g.Ops[op].Code)
		// An unpipelined op whose block span exceeds the II wraps around
		// the modulo table and demands some slots more than once.
		span := block
		if span > ii {
			span = ii
		}
		for j := 0; j < span; j++ {
			demand := (block-1-j)/ii + 1
			if unitUse[kind][(at+j)%ii]+demand > m.Units[kind] {
				return false
			}
		}
		return true
	}

	work := append(st.work[:0], st.order...)
	head := 0
	budget := n * 16

	for head < len(work) {
		if budget--; budget < 0 {
			st.work = work
			return nil, false
		}
		op := work[head]
		head++

		// Earliest start given scheduled predecessors.
		estart := 0
		for _, e := range g.In[op] {
			if !placed[e.From] {
				continue
			}
			if t := cycle[e.From] + e.Lat - ii*e.Dist; t > estart {
				estart = t
			}
		}
		// Find a resource-feasible slot within one II of estart.
		at := -1
		for t := estart; t < estart+ii; t++ {
			if fits(op, t) {
				at = t
				break
			}
		}
		forced := false
		if at < 0 {
			at = estart
			forced = true
		}
		// Progress rule: never reschedule an op at or before its previous
		// slot when forcing.
		if at <= prevTime[op] {
			at = prevTime[op] + 1
			forced = true
		}

		if forced {
			// Evict resource conflicts at the target slot: the occupants
			// of every unit slot op spans, plus those of its issue slot
			// on issue-limited machines, in ascending op index.
			kind := m.UnitFor(g.Ops[op].Code)
			span := min(m.BlockCycles(g.Ops[op].Code), ii)
			for wi := 0; wi < w; wi++ {
				var evict uint64
				for j := 0; j < span; j++ {
					evict |= unitOcc[kind][(at+j)%ii*w+wi]
				}
				if limited {
					evict |= issueOcc[at%ii*w+wi]
				}
				for ; evict != 0; evict &= evict - 1 {
					other := wi*64 + bits.TrailingZeros64(evict)
					reserve(other, cycle[other], -1)
					placed[other] = false
					work = append(work, other)
				}
			}
		}
		cycle[op] = at
		prevTime[op] = at
		placed[op] = true
		reserve(op, at, +1)

		// Unschedule any successor whose dependence is now violated.
		for _, e := range g.Out[op] {
			if !placed[e.To] || e.To == op {
				continue
			}
			if cycle[op]+e.Lat-ii*e.Dist > cycle[e.To] {
				reserve(e.To, cycle[e.To], -1)
				placed[e.To] = false
				work = append(work, e.To)
			}
		}
		for _, e := range g.In[op] {
			if !placed[e.From] || e.From == op {
				continue
			}
			if cycle[e.From]+e.Lat-ii*e.Dist > cycle[op] {
				reserve(e.From, cycle[e.From], -1)
				placed[e.From] = false
				work = append(work, e.From)
			}
		}
	}

	st.work = work

	// Final verification: dependences and the modulo reservation table
	// (forced placements may have oversubscribed an infeasible II).
	for _, e := range g.Edges {
		if cycle[e.From]+e.Lat-ii*e.Dist > cycle[e.To] {
			return nil, false
		}
	}
	finalUse := st.finalUse
	for k := range finalUse {
		finalUse[k] = grow(finalUse[k], ii)
	}
	st.finalUse = finalUse
	for i, op := range g.Ops {
		kind := m.UnitFor(op.Code)
		for j := 0; j < m.BlockCycles(op.Code); j++ {
			slot := (cycle[i] + j) % ii
			finalUse[kind][slot]++
			if finalUse[kind][slot] > m.Units[kind] {
				return nil, false
			}
		}
	}
	// Normalize so the earliest op is at cycle 0. Shifting every cycle by
	// the same amount rotates the reservation table uniformly, which
	// preserves feasibility.
	first := cycle[0]
	for _, c := range cycle {
		if c < first {
			first = c
		}
	}
	// The scratch cycle slice is reused by the next attempt; the winning
	// schedule is copied out for the Result to own.
	out := make([]int, n)
	for i := range cycle {
		out[i] = cycle[i] - first
	}
	return out, true
}

// issueLimited reports whether forced placements on m also evict the ops
// that share the target's modulo issue slot. That holds on machines that
// issue at most two ops per cycle, whatever the slot's occupancy.
func issueLimited(m *machine.Desc) bool {
	return m.IssueWidth <= 2
}

// finish packages a feasible modulo schedule and computes register demand
// under modulo variable expansion: a value live for L cycles needs
// ceil(L/II) registers.
func finish(g *analysis.Graph, ii int, cycle []int) *Result {
	res := &Result{II: ii, Cycle: cycle}
	last := 0
	for _, c := range cycle {
		if c > last {
			last = c
		}
	}
	res.Stages = last/ii + 1

	m := g.Mach
	demFP, demInt := 0, 0
	for i, op := range g.Ops {
		if !op.Code.HasResult() {
			continue
		}
		def := cycle[i]
		end := def
		for _, e := range g.Out[i] {
			if e.Kind != analysis.EdgeData {
				continue
			}
			if t := cycle[e.To] + ii*e.Dist; t > end {
				end = t
			}
		}
		need := (end - def + ii - 1) / ii
		if need < 1 {
			need = 1
		}
		if op.FP {
			demFP += need
		} else {
			demInt += need
		}
	}
	for _, p := range g.Loop.Params {
		if p.Code != ir.OpParam {
			continue
		}
		if p.FP {
			demFP++
		} else {
			demInt++
		}
	}
	res.RegsFP = demFP
	res.RegsInt = demInt

	availFP, availInt := registerFiles(m)
	spills := 0
	if demFP > availFP {
		spills += demFP - availFP
	}
	if demInt > availInt {
		spills += demInt - availInt
	}
	res.SpillCycles = spills * m.SpillCost
	return res
}

// registerFiles returns the FP and integer registers a modulo schedule on m
// may hold values in: each file, limited to the rotating registers where
// the machine has them.
func registerFiles(m *machine.Desc) (fp, integer int) {
	fp, integer = m.FPRegs, m.IntRegs
	if m.RotatingRegs > 0 {
		fp = min(fp, m.RotatingRegs)
		integer = min(integer, m.RotatingRegs)
	}
	return fp, integer
}

// spillFreeII returns the smallest II in [lo, hi) at which a lower bound on
// finish's register demand fits both register files, or hi if there is
// none. Below it every schedule tryII accepts spills: tryII accepts only
// schedules that satisfy every edge, so a value lives at least its op's
// largest data out-edge latency L, and finish charges it at least
// max(1, ⌈L/II⌉) registers; each OpParam holds one more. The bound falls
// as II rises.
func spillFreeII(g *analysis.Graph, st *state, lo, hi int) int {
	latFP, latInt := st.latFP[:0], st.latInt[:0]
	for i, op := range g.Ops {
		if !op.Code.HasResult() {
			continue
		}
		lat := 0
		for _, e := range g.Out[i] {
			if e.Kind == analysis.EdgeData {
				lat = max(lat, e.Lat)
			}
		}
		if op.FP {
			latFP = append(latFP, lat)
		} else {
			latInt = append(latInt, lat)
		}
	}
	st.latFP, st.latInt = latFP, latInt
	availFP, availInt := registerFiles(g.Mach)
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
	for ii := lo; ii < hi; ii++ {
		if minRegs(latFP, ii) <= availFP && minRegs(latInt, ii) <= availInt {
			return ii
		}
	}
	return hi
}

// minRegs is the fewest registers that values living at least lats cycles
// need at II ii under modulo variable expansion.
func minRegs(lats []int, ii int) int {
	n := 0
	for _, lat := range lats {
		n += max(1, (lat+ii-1)/ii)
	}
	return n
}

// Verify checks every dependence edge under the modulo constraint.
func (r *Result) Verify(g *analysis.Graph) error {
	for _, e := range g.Edges {
		if r.Cycle[e.From]+e.Lat-r.II*e.Dist > r.Cycle[e.To] {
			return fmt.Errorf("swp: %s: edge v%d→v%d (lat %d dist %d) violated at II=%d",
				g.Loop.Name, g.Ops[e.From].ID, g.Ops[e.To].ID, e.Lat, e.Dist, r.II)
		}
	}
	// Modulo resource check.
	m := g.Mach
	var unitUse [machine.NumUnitKinds][]int
	for k := range unitUse {
		unitUse[k] = make([]int, r.II)
	}
	for i, op := range g.Ops {
		kind := m.UnitFor(op.Code)
		for j := 0; j < m.BlockCycles(op.Code); j++ {
			slot := (r.Cycle[i] + j) % r.II
			unitUse[kind][slot]++
			if unitUse[kind][slot] > m.Units[kind] {
				return fmt.Errorf("swp: %s: unit %s oversubscribed at modulo slot %d (II=%d)",
					g.Loop.Name, kind, slot, r.II)
			}
		}
	}
	return nil
}
