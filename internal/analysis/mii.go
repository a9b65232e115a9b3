package analysis

import (
	"metaopt/internal/ir"
	"metaopt/internal/machine"
)

// ResMII returns the resource-constrained minimum initiation interval as a
// rational num/den: the tightest bound over functional-unit classes and the
// global issue width. Keeping it rational is what exposes fractional-II
// opportunities — the reason unrolling helps a software-pipelined loop.
func (g *Graph) ResMII() (num, den int) {
	var perUnit [machine.NumUnitKinds]int
	blocked := 0
	for _, op := range g.Ops {
		perUnit[g.Mach.UnitFor(op.Code)] += g.Mach.BlockCycles(op.Code)
		blocked++
	}
	num, den = 0, 1
	consider := func(n, d int) {
		if d > 0 && n*den > num*d {
			num, den = n, d
		}
	}
	for k, cnt := range perUnit {
		consider(cnt, g.Mach.Units[k])
	}
	consider(blocked, g.Mach.IssueWidth)
	if num == 0 {
		num, den = 1, 1
	}
	return num, den
}

// RecurrenceRatio returns the maximum cycle ratio of the dependence graph —
// max over dependence cycles of (total latency) / (total distance) — as a
// rational num/den. Loops with no recurrence return (0, 1). The ratio is the
// recurrence-constrained component of the MII; for a loop unrolled by u the
// recurrence bound scales to u·num/den.
//
// The computation finds the smallest integer II admitting no positive cycle
// under edge weights lat − II·dist (Bellman-Ford detection), then refines
// the last interval [II−1, II] by testing den·lat − num·dist weights for
// exact rational bounds with small denominators. Every pass runs on the
// graph's cyclic core (see cyclicCore), which holds every cycle.
func (g *Graph) RecurrenceRatio() (num, den int) {
	return g.RecurrenceRatioExcluding(nil)
}

// RecurrenceRatioExcluding computes the maximum cycle ratio ignoring cycles
// through operations rejected by keep (keep == nil keeps everything). The
// software pipeliner uses this to discount the induction-variable update,
// whose recurrence folds away under unrolling.
func (g *Graph) RecurrenceRatioExcluding(exclude func(*ir.Op) bool) (num, den int) {
	n := len(g.Ops)
	if n == 0 {
		return 0, 1
	}
	edges := g.Edges
	if exclude != nil {
		kept := make([]Edge, 0, len(edges))
		for _, e := range edges {
			if exclude(g.Ops[e.From]) || exclude(g.Ops[e.To]) {
				continue
			}
			kept = append(kept, e)
		}
		edges = kept
	}
	hasCarried := false
	maxII := 1
	for _, e := range edges {
		if e.Dist > 0 {
			hasCarried = true
		}
		if e.Lat > 0 {
			maxII += e.Lat
		}
	}
	if !hasCarried {
		return 0, 1
	}
	edges, n = g.cyclicCore(edges, n)
	if n == 0 {
		return 0, 1
	}
	dist := resize(g.dist, n)
	g.dist = dist

	// Binary search the smallest integer II with no positive cycle.
	lo, hi := 0, maxII // II=lo infeasible or unknown; II=hi feasible
	if !positiveCycle(edges, dist, 1, 0) {
		// No positive-latency cycle at all: recurrences exist but impose
		// no initiation bound (e.g. pure anti-dependences).
		return 0, 1
	}
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if positiveCycle(edges, dist, 1, mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	// The true max cycle ratio r satisfies lo < r <= hi. Search small
	// denominators for the exact rational in that interval.
	const maxDen = 8
	bestNum, bestDen := hi, 1
	for d := 2; d <= maxDen; d++ {
		// Smallest numerator nn with nn/d > lo and no positive cycle.
		for nn := lo*d + 1; nn <= hi*d; nn++ {
			if !positiveCycle(edges, dist, d, nn) {
				if nn*bestDen < bestNum*d {
					bestNum, bestDen = nn, d
				}
				break
			}
		}
	}
	return bestNum, bestDen
}

// cyclicCore peels edges over nodes [0, n) to their cyclic core: it drops
// nodes left with no in-edge or no out-edge until none remains, renumbers
// the survivors densely, and returns the edges among them and their count.
// A node on a cycle keeps the cycle's in-edge and out-edge, so every cycle
// survives, and positiveCycle answers the same over the core as over all
// the edges, in fewer and shorter passes. The core lives in g's scratch
// until the next search.
func (g *Graph) cyclicCore(edges []Edge, n int) ([]Edge, int) {
	m := len(edges)
	// One slab: remaining degrees, a fill cursor that becomes the worklist,
	// id (0 while a node survives, -1 once peeled, then its core number),
	// and CSR offsets and neighbours in both directions.
	s := resize(g.coreSlab, 6*n+2+2*m)
	g.coreSlab = s
	clear(s)
	indeg, outdeg, cur, id := s[:n], s[n:2*n], s[2*n:3*n], s[3*n:4*n]
	outOff, inOff := s[4*n:5*n+1], s[5*n+1:6*n+2]
	outAdj, inAdj := s[6*n+2:6*n+2+m], s[6*n+2+m:]
	for _, e := range edges {
		outdeg[e.From]++
		indeg[e.To]++
	}
	for v := 0; v < n; v++ {
		outOff[v+1] = outOff[v] + outdeg[v]
		inOff[v+1] = inOff[v] + indeg[v]
	}
	copy(cur, outOff)
	for _, e := range edges {
		outAdj[cur[e.From]] = int32(e.To)
		cur[e.From]++
	}
	copy(cur, inOff)
	for _, e := range edges {
		inAdj[cur[e.To]] = int32(e.From)
		cur[e.To]++
	}
	work := cur[:0]
	peel := func(v int32) {
		id[v] = -1
		work = append(work, v)
	}
	for v := range int32(n) {
		if indeg[v] == 0 || outdeg[v] == 0 {
			peel(v)
		}
	}
	for len(work) > 0 {
		u := work[len(work)-1]
		work = work[:len(work)-1]
		for _, v := range outAdj[outOff[u]:outOff[u+1]] {
			if indeg[v]--; indeg[v] == 0 && id[v] == 0 {
				peel(v)
			}
		}
		for _, w := range inAdj[inOff[u]:inOff[u+1]] {
			if outdeg[w]--; outdeg[w] == 0 && id[w] == 0 {
				peel(w)
			}
		}
	}
	// A survivor's remaining out-degree counts its edges into the core.
	k, kept := int32(0), int32(0)
	for v := range id {
		if id[v] == 0 {
			id[v], k, kept = k, k+1, kept+outdeg[v]
		}
	}
	core := resize(g.coreEdges, int(kept))[:0]
	for _, e := range edges {
		if id[e.From] >= 0 && id[e.To] >= 0 {
			e.From, e.To = int(id[e.From]), int(id[e.To])
			core = append(core, e)
		}
	}
	g.coreEdges = core
	return core, int(k)
}

// positiveCycle reports whether the edge weights a·lat − b·dist admit a
// positive cycle, i.e. whether some cycle has lat/dist > b/a, so the
// candidate ratio b/a is infeasible as an II. It runs Bellman-Ford from a
// virtual source over len(dist) nodes; dist is scratch, overwritten.
func positiveCycle(edges []Edge, dist []int64, a, b int) bool {
	clear(dist)
	for iter := 0; iter < len(dist); iter++ {
		changed := false
		for _, e := range edges {
			w := int64(a*e.Lat - b*e.Dist)
			if dist[e.From]+w > dist[e.To] {
				dist[e.To] = dist[e.From] + w
				changed = true
			}
		}
		if !changed {
			return false
		}
	}
	// One more relaxation round: any further improvement proves a
	// positive cycle.
	for _, e := range edges {
		w := int64(a*e.Lat - b*e.Dist)
		if dist[e.From]+w > dist[e.To] {
			return true
		}
	}
	return false
}

// MinFeasibleII returns the smallest II in [lo, hi) at which the edge
// weights lat − II·dist admit no positive cycle, or hi if there is none.
// No schedule can satisfy every edge at a smaller II: summed around any
// cycle, the edge constraints give 0 ≥ Σ(lat − II·dist). Feasibility is
// monotone in II (distances are non-negative), so the search is binary,
// over the graph's cyclic core.
func (g *Graph) MinFeasibleII(lo, hi int) int {
	edges, n := g.cyclicCore(g.Edges, len(g.Ops))
	if n == 0 {
		return lo
	}
	dist := resize(g.dist, n)
	g.dist = dist
	for lo < hi {
		mid := lo + (hi-lo)/2
		if positiveCycle(edges, dist, 1, mid) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// MII returns the integer minimum initiation interval for modulo
// scheduling: the ceiling of the larger of the resource bound and the
// recurrence bound.
func (g *Graph) MII() int {
	rn, rd := g.ResMII()
	mii := ceilDiv(rn, rd)
	cn, cd := g.RecurrenceRatio()
	if cd > 0 {
		if r := ceilDiv(cn, cd); r > mii {
			mii = r
		}
	}
	if mii < 1 {
		mii = 1
	}
	return mii
}

// HasRecurrence reports whether any loop-carried dependence exists.
func (g *Graph) HasRecurrence() bool {
	for _, e := range g.Edges {
		if e.Dist > 0 {
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

// OpClassCounts tallies body ops per functional-unit class; the scheduler,
// the heuristics and the feature extractor all use it.
func OpClassCounts(l *ir.Loop, m *machine.Desc) [machine.NumUnitKinds]int {
	var counts [machine.NumUnitKinds]int
	for _, op := range l.Body {
		counts[m.UnitFor(op.Code)]++
	}
	return counts
}
