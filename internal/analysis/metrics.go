package analysis

import (
	"metaopt/internal/ir"
)

// Shape is the loop-body shape the feature vector and the baseline
// heuristics read off the ASAP schedule (infinite resources, same-iteration
// edges only). Graph.Shape computes every field in one forward pass over
// the ops, which also runs the union-find, and one more sweep over them.
type Shape struct {
	// CriticalPath is the length in cycles of the longest same-iteration
	// dependence chain, including the latency of its final operation: the
	// paper's "estimated latency of critical path" feature.
	CriticalPath int
	// CycleLength is a fast schedule estimate, the larger of the critical
	// path and the resource bound: the paper's "estimated cycle length of
	// loop body" feature, without running the scheduler.
	CycleLength int
	// Components counts the weakly connected components of the data-flow
	// graph (all data edges, any distance) over the computation ops, the
	// ops other than the back-edge branch: the paper's parallel
	// "computations".
	Components int
	// MaxDepHeight and AvgDepHeight are the largest and the mean
	// same-iteration critical path of one computation.
	MaxDepHeight int
	AvgDepHeight float64
	// LivePeak and LiveSum approximate register demand: every value lives
	// from its definition to its last same-iteration use in the ASAP
	// schedule, a loop-carried value to the end of the iteration; LivePeak
	// is the most values live at once, LiveSum the live cycles summed over
	// values.
	LivePeak, LiveSum int
}

// Shape computes the body's shape metrics.
func (g *Graph) Shape() Shape {
	n := len(g.Ops)
	asap := resize(g.asap, n)
	fin := resize(g.fin, n)
	height := resize(g.height, n)
	uf := resize(g.uf, n)
	g.asap, g.fin, g.height, g.uf = asap, fin, height, uf
	clear(asap)
	for i := range uf {
		uf[i] = int32(i)
		height[i] = -1
	}
	var s Shape
	// Ops are in program order and dist-0 edges always point forward
	// (validated by the IR), so one forward pass settles every issue time.
	// Every edge is in one In list, so the same pass unions the data edges
	// between computation ops.
	for to, op := range g.Ops {
		for _, e := range g.In[to] {
			if e.Dist == 0 {
				if t := asap[e.From] + e.Lat; t > asap[to] {
					asap[to] = t
				}
			}
			if e.Kind == EdgeData && isComputation(op) && isComputation(g.Ops[e.From]) {
				uf[find(uf, int32(e.From))] = find(uf, int32(to))
			}
		}
		fin[to] = asap[to] + g.Mach.Latency(op)
		s.CriticalPath = max(s.CriticalPath, fin[to])
	}
	num, den := g.ResMII()
	s.CycleLength = max(s.CriticalPath, (num+den-1)/den)

	length := s.CriticalPath
	var delta []int
	if length > 0 {
		delta = resize(g.delta, length+2)
		g.delta = delta
		clear(delta)
	}
	// Each computation's height is its members' latest finish; the heights
	// are integers, so their sum is exact in any order.
	sumHeight := 0
	for i, op := range g.Ops {
		if isComputation(op) {
			r, h := find(uf, int32(i)), fin[i]
			switch old := height[r]; {
			case old < 0:
				s.Components++
				sumHeight += h
				height[r] = h
			case h > old:
				sumHeight += h - old
				height[r] = h
			}
			s.MaxDepHeight = max(s.MaxDepHeight, h)
		}
		if length == 0 || !op.Code.HasResult() {
			continue
		}
		def, last, carried := fin[i], fin[i], false
		for _, e := range g.Out[i] {
			if e.Kind != EdgeData {
				continue
			}
			if e.Dist > 0 {
				carried = true
				continue
			}
			last = max(last, asap[e.To])
		}
		if carried {
			last = length
		}
		def, last = min(def, length), min(last, length)
		delta[def]++
		delta[last+1]--
		s.LiveSum += last - def + 1
	}
	if s.Components > 0 {
		s.AvgDepHeight = float64(sumHeight) / float64(s.Components)
	}
	live := 0
	for _, d := range delta {
		live += d
		s.LivePeak = max(s.LivePeak, live)
	}
	return s
}

// find returns x's union-find root, halving the path on the way.
func find(uf []int32, x int32) int32 {
	for uf[x] != x {
		uf[x] = uf[uf[x]]
		x = uf[x]
	}
	return x
}

// isComputation reports whether op belongs to the actual computation
// rather than loop control: everything but the back-edge branch.
func isComputation(op *ir.Op) bool { return op.Code != ir.OpBr }

// chainHeight computes the longest dist-0 chain restricted to ops accepted
// by keep, counting one unit per op on the chain.
func (g *Graph) chainHeight(keep func(*ir.Op) bool) int {
	n := len(g.Ops)
	h := resize(g.chain, n)
	g.chain = h
	clear(h)
	best := 0
	for to := 0; to < n; to++ {
		if !keep(g.Ops[to]) {
			continue
		}
		h[to] = 1
		for _, e := range g.In[to] {
			if e.Dist != 0 || !keep(g.Ops[e.From]) {
				continue
			}
			if t := h[e.From] + 1; t > h[to] {
				h[to] = t
			}
		}
		if h[to] > best {
			best = h[to]
		}
	}
	return best
}

// MemDepHeight returns the length of the longest same-iteration chain of
// memory operations linked by dependences (the paper's "max height of
// memory dependencies of computations").
func (g *Graph) MemDepHeight() int {
	return g.chainHeight(func(op *ir.Op) bool { return op.Code.IsMem() })
}

// CtrlDepHeight returns the longest same-iteration chain through
// control-related ops — compares, selects and branches (the paper's "max
// height of control dependencies").
func (g *Graph) CtrlDepHeight() int {
	return g.chainHeight(func(op *ir.Op) bool {
		switch op.Code {
		case ir.OpCmp, ir.OpFCmp, ir.OpSel, ir.OpCondBr, ir.OpBr:
			return true
		}
		return false
	})
}

// FanIn returns the maximum and mean data-flow in-degree of the loop's
// operations ("instruction fan-in in DAG", a Table 3 feature).
func (g *Graph) FanIn() (max int, mean float64) {
	if len(g.Ops) == 0 {
		return 0, 0
	}
	var sum int
	for i := range g.Ops {
		d := 0
		for _, e := range g.In[i] {
			if e.Kind == EdgeData && e.Dist == 0 {
				d++
			}
		}
		if d > max {
			max = d
		}
		sum += d
	}
	return max, float64(sum) / float64(len(g.Ops))
}

// MemDeps summarizes loop-carried memory-to-memory dependences: how many
// there are and the minimum carried distance. When the loop has none,
// minDist reports 0.
func (g *Graph) MemDeps() (count, minDist int) {
	for _, e := range g.Edges {
		if e.Kind != EdgeMem {
			continue
		}
		count++
		if e.Dist > 0 && (minDist == 0 || e.Dist < minDist) {
			minDist = e.Dist
		}
	}
	return count, minDist
}
