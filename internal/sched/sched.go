// Package sched implements the operation list scheduler used when software
// pipelining is disabled: a cycle-driven, critical-path-priority scheduler
// with functional-unit reservation, producing the issue cycle of every
// operation plus the steady-state period of the loop body (including stalls
// imposed across the back edge by loop-carried dependences).
package sched

import (
	"fmt"
	"sync"

	"metaopt/internal/analysis"
	"metaopt/internal/machine"
)

// Schedule is the result of list-scheduling one loop body.
type Schedule struct {
	Graph *analysis.Graph

	// Cycle is the issue cycle of each op (indexed like Graph.Ops).
	Cycle []int

	// Length is the number of issue cycles in the body schedule
	// (last issue cycle + 1).
	Length int

	// Period is the steady-state cycle count per body execution: schedule
	// length, back-edge redirect cost, and any extra stall needed to honor
	// loop-carried dependences between consecutive bodies.
	Period int
}

// readyEnt is one entry of the ready queue: an op with its priority key.
type readyEnt struct {
	h   int // height: longest latency path to a sink (higher first)
	seq int // arrival order (earlier first) — makes the queue stable
	op  int
}

// readyHeap is a binary heap ordered by (height desc, seq asc): popping
// yields exactly the sequence a stable sort of the arrival order by
// descending height would, without re-sorting the whole queue every pass.
type readyHeap []readyEnt

func (h readyHeap) before(a, b int) bool {
	if h[a].h != h[b].h {
		return h[a].h > h[b].h
	}
	return h[a].seq < h[b].seq
}

func (h *readyHeap) push(e readyEnt) {
	*h = append(*h, e)
	q := *h
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if !q.before(i, p) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
}

func (h *readyHeap) pop() readyEnt {
	q := *h
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q = q[:last]
	*h = q
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		next := i
		if l < last && q.before(l, next) {
			next = l
		}
		if r < last && q.before(r, next) {
			next = r
		}
		if next == i {
			break
		}
		q[i], q[next] = q[next], q[i]
		i = next
	}
	return top
}

// Scheduler is reusable scratch state for List. A zero Scheduler is ready
// to use; after the first few calls it reaches steady state and ListInto
// performs no heap allocations. A Scheduler must not be used concurrently.
type Scheduler struct {
	height   []int
	preds    []int
	earliest []int
	cur      readyHeap // ready queue drained this pass
	next     readyHeap // deferred + newly enabled ops for the next pass
	unitUse  [machine.NumUnitKinds][]int
	issueUse []int
}

// pool is the shared scratch-state pool behind the package-level List;
// internal/sim and internal/swp schedule every candidate body through it.
var pool = sync.Pool{New: func() any { return new(Scheduler) }}

// List schedules the body of g's loop using pooled scratch state. It
// always succeeds: the dependence graph restricted to same-iteration edges
// is acyclic by IR construction.
func List(g *analysis.Graph) *Schedule {
	sc := pool.Get().(*Scheduler)
	s := sc.ListInto(g, &Schedule{})
	pool.Put(sc)
	return s
}

// grow returns sl resliced to length n within capacity, zeroed, allocating
// only when capacity is insufficient.
func grow(sl []int, n int) []int {
	if cap(sl) < n {
		return make([]int, n)
	}
	sl = sl[:n]
	clear(sl)
	return sl
}

// ListInto is List with caller-owned result storage: s is reset, filled,
// and returned, reusing s.Cycle's capacity. In steady state (warm scratch,
// warm s.Cycle) it does not allocate.
func (sc *Scheduler) ListInto(g *analysis.Graph, s *Schedule) *Schedule {
	n := len(g.Ops)
	*s = Schedule{Graph: g, Cycle: grow(s.Cycle, n)}
	if n == 0 {
		s.Period = 1
		return s
	}
	m := g.Mach

	// Priority: height — longest dist-0 path from the op to any sink,
	// including latencies.
	height := grow(sc.height, n)
	sc.height = height
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

	// Earliest start constrained by scheduled dist-0 predecessors.
	preds := grow(sc.preds, n) // unscheduled dist-0 predecessor count
	earliest := grow(sc.earliest, n)
	sc.preds, sc.earliest = preds, earliest
	for i := range g.Ops {
		for _, e := range g.In[i] {
			if e.Dist == 0 {
				preds[i]++
			}
		}
	}
	// The ready queue pops by (height desc, arrival seq asc), which
	// reproduces a stable descending-height sort of the arrival order.
	cur, next := sc.cur[:0], sc.next[:0]
	seq := 0
	for i := range g.Ops {
		if preds[i] == 0 {
			cur.push(readyEnt{h: height[i], seq: seq, op: i})
			seq++
		}
	}

	// Resource state, grown on demand: per-kind usage and issue count per
	// cycle. Lengths reset to zero each call; appends reuse capacity.
	issueUse := sc.issueUse[:0]
	unitUse := sc.unitUse
	for k := range unitUse {
		unitUse[k] = unitUse[k][:0]
	}
	ensure := func(c int) {
		for len(issueUse) <= c {
			issueUse = append(issueUse, 0)
			for k := range unitUse {
				unitUse[k] = append(unitUse[k], 0)
			}
		}
	}
	fits := func(op int, c int) bool {
		kind := m.UnitFor(g.Ops[op].Code)
		block := m.BlockCycles(g.Ops[op].Code)
		ensure(c + block)
		if issueUse[c] >= m.IssueWidth {
			return false
		}
		for j := 0; j < block; j++ {
			if unitUse[kind][c+j] >= m.Units[kind] {
				return false
			}
		}
		return true
	}
	place := func(op, c int) {
		kind := m.UnitFor(g.Ops[op].Code)
		block := m.BlockCycles(g.Ops[op].Code)
		ensure(c + block)
		issueUse[c]++
		for j := 0; j < block; j++ {
			unitUse[kind][c+j]++
		}
		s.Cycle[op] = c
	}

	remaining := n
	cycle := 0
	for remaining > 0 {
		// Keep filling the current cycle until nothing more fits: an op
		// whose predecessors all issue this cycle with zero latency may
		// still co-issue (e.g. the back-edge branch beside the last store).
		for {
			placedAny := false
			for len(cur) > 0 {
				op := cur.pop().op
				if earliest[op] > cycle || !fits(op, cycle) {
					next.push(readyEnt{h: height[op], seq: seq, op: op})
					seq++
					continue
				}
				place(op, cycle)
				placedAny = true
				remaining--
				if s.Cycle[op]+1 > s.Length {
					s.Length = s.Cycle[op] + 1
				}
				for _, e := range g.Out[op] {
					if e.Dist != 0 {
						continue
					}
					if t := cycle + e.Lat; t > earliest[e.To] {
						earliest[e.To] = t
					}
					preds[e.To]--
					if preds[e.To] == 0 {
						next.push(readyEnt{h: height[e.To], seq: seq, op: e.To})
						seq++
					}
				}
			}
			cur, next = next, cur[:0]
			if !placedAny {
				break
			}
		}
		cycle++
		if cycle > 4*n*16+64 {
			panic(fmt.Sprintf("sched: no progress scheduling %s", g.Loop.Name))
		}
	}
	sc.cur, sc.next = cur, next
	sc.issueUse = issueUse
	sc.unitUse = unitUse

	s.Period = s.Length + m.BranchCycles - 1
	// Loop-carried dependences may stretch the inter-body period: op v of
	// body k+d must start at least lat cycles after op u of body k.
	for _, e := range g.Edges {
		if e.Dist == 0 {
			continue
		}
		need := s.Cycle[e.From] + e.Lat - s.Cycle[e.To]
		if need <= 0 {
			continue
		}
		p := (need + e.Dist - 1) / e.Dist
		if p > s.Period {
			s.Period = p
		}
	}
	return s
}

// Verify checks that the schedule respects dependences and resources.
// It is used by tests and as an internal consistency check.
func (s *Schedule) Verify() error {
	g := s.Graph
	m := g.Mach
	for _, e := range g.Edges {
		if e.Dist != 0 {
			continue
		}
		if s.Cycle[e.From]+e.Lat > s.Cycle[e.To] {
			return fmt.Errorf("sched: %s: edge v%d→v%d (%s lat %d) violated: %d → %d",
				g.Loop.Name, g.Ops[e.From].ID, g.Ops[e.To].ID, e.Kind, e.Lat, s.Cycle[e.From], s.Cycle[e.To])
		}
	}
	// Resource tables indexed by cycle, grown on demand.
	var unitUse [machine.NumUnitKinds][]int
	var issue []int
	ensure := func(c int) {
		for len(issue) <= c {
			issue = append(issue, 0)
			for k := range unitUse {
				unitUse[k] = append(unitUse[k], 0)
			}
		}
	}
	for i, op := range g.Ops {
		c := s.Cycle[i]
		block := m.BlockCycles(op.Code)
		ensure(c + block)
		issue[c]++
		if issue[c] > m.IssueWidth {
			return fmt.Errorf("sched: %s: issue width exceeded at cycle %d", g.Loop.Name, c)
		}
		kind := m.UnitFor(op.Code)
		for j := 0; j < block; j++ {
			unitUse[kind][c+j]++
			if unitUse[kind][c+j] > m.Units[kind] {
				return fmt.Errorf("sched: %s: unit %s oversubscribed at cycle %d", g.Loop.Name, kind, c+j)
			}
		}
	}
	return nil
}
