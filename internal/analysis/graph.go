// Package analysis builds the dependence graph of a loop body and derives
// the quantities everything downstream needs: critical paths, recurrence and
// resource bounds on the initiation interval, dependence heights, memory
// dependence distances and the structural statistics that feed the
// 38-element feature vector.
package analysis

import (
	"metaopt/internal/ir"
	"metaopt/internal/machine"
)

// EdgeKind classifies dependence edges.
type EdgeKind int

// Dependence edge kinds.
const (
	EdgeData EdgeKind = iota // register data flow (including predicates)
	EdgeMem                  // memory ordering (RAW/WAR/WAW through arrays)
	EdgeCtrl                 // control ordering (exits, calls, back edge)
)

// String names the edge kind.
func (k EdgeKind) String() string {
	switch k {
	case EdgeData:
		return "data"
	case EdgeMem:
		return "mem"
	case EdgeCtrl:
		return "ctrl"
	}
	return "edge?"
}

// Edge is a dependence From→To: To may issue no earlier than Lat cycles
// after From, Dist iterations later.
type Edge struct {
	From, To int
	Lat      int
	Dist     int
	Kind     EdgeKind
}

// Graph is the dependence graph of one loop body on one machine.
type Graph struct {
	Loop  *ir.Loop
	Mach  *machine.Desc
	Ops   []*ir.Op
	Out   [][]Edge
	In    [][]Edge
	Edges []Edge

	// idx maps op ID → body position during construction (-1 for pseudo
	// ops). IDs are dense per loop, so a slice beats a pointer-keyed map.
	idx []int32

	// Construction scratch Reset keeps for the next body: the memory-op
	// positions, the per-op degrees and the two slabs Out and In view.
	mems            []int
	outDeg, inDeg   []int32
	outSlab, inSlab []Edge
}

// Build constructs the dependence graph of l for machine m.
func Build(l *ir.Loop, m *machine.Desc) *Graph {
	return new(Graph).Reset(l, m)
}

// Reset rebuilds g in place as the dependence graph of l for machine m and
// returns g. The result equals Build(l, m); the edge list, the adjacency
// headers and slabs and the construction scratch reuse g's capacity, so a
// warmed graph resets without allocating. Slices taken from g before the
// call are overwritten.
func (g *Graph) Reset(l *ir.Loop, m *machine.Desc) *Graph {
	g.Loop, g.Mach, g.Ops = l, m, l.Body
	g.Edges = g.Edges[:0]
	g.idx = resize(g.idx, l.MaxID())
	for i := range g.idx {
		g.idx[i] = -1
	}
	for i, op := range l.Body {
		g.idx[op.ID] = int32(i)
	}
	g.addDataEdges()
	g.addMemEdges()
	g.addCtrlEdges()
	g.buildAdjacency()
	return g
}

// resize returns s with length n, reusing its capacity when it suffices.
// The contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// addEdge records an edge; adjacency lists are built in one pass at the
// end (buildAdjacency), so edge collection only grows a single slice.
func (g *Graph) addEdge(e Edge) {
	g.Edges = append(g.Edges, e)
}

// buildAdjacency materializes Out and In as views into two flat edge
// slabs, sized exactly. Per-list edge order matches insertion order, the
// same order incremental appends produced.
func (g *Graph) buildAdjacency() {
	n := len(g.Ops)
	g.Out = resize(g.Out, n)
	g.In = resize(g.In, n)
	g.outDeg = resize(g.outDeg, n)
	g.inDeg = resize(g.inDeg, n)
	clear(g.outDeg)
	clear(g.inDeg)
	for _, e := range g.Edges {
		g.outDeg[e.From]++
		g.inDeg[e.To]++
	}
	g.outSlab = resize(g.outSlab, len(g.Edges))
	g.inSlab = resize(g.inSlab, len(g.Edges))
	var outOff, inOff int32
	for i := 0; i < n; i++ {
		g.Out[i] = g.outSlab[outOff : outOff : outOff+g.outDeg[i]]
		g.In[i] = g.inSlab[inOff : inOff : inOff+g.inDeg[i]]
		outOff += g.outDeg[i]
		inOff += g.inDeg[i]
	}
	for _, e := range g.Edges {
		g.Out[e.From] = append(g.Out[e.From], e)
		g.In[e.To] = append(g.In[e.To], e)
	}
}

func (g *Graph) addDataEdges() {
	for to, op := range g.Ops {
		for _, a := range op.Args {
			if a.Op.ID >= len(g.idx) {
				continue
			}
			from := g.idx[a.Op.ID]
			if from < 0 {
				continue // parameter or constant: always available
			}
			g.addEdge(Edge{From: int(from), To: to, Lat: g.Mach.Latency(a.Op), Dist: a.Dist, Kind: EdgeData})
		}
	}
}

// addMemEdges adds ordering edges between memory operations. Two affine
// references to the same array with equal strides conflict at an exact
// iteration distance; other same-array pairs and — unless the loop is
// known alias-free — cross-array store pairs are handled conservatively.
func (g *Graph) addMemEdges() {
	mems := g.mems[:0]
	for i, op := range g.Ops {
		if op.Code.IsMem() {
			mems = append(mems, i)
		}
	}
	g.mems = mems
	for ai := 0; ai < len(mems); ai++ {
		for bi := ai + 1; bi < len(mems); bi++ {
			g.memPair(mems[ai], mems[bi])
		}
	}
}

// memPair adds dependence edges between the earlier op e and later op l
// (program order). At least one must be a store for a dependence to exist.
func (g *Graph) memPair(e, l int) {
	eo, lo := g.Ops[e], g.Ops[l]
	if eo.Code == ir.OpLoad && lo.Code == ir.OpLoad {
		return
	}
	em, lm := eo.Mem, lo.Mem
	if em.Array != lm.Array {
		// Distinct arrays: independent when alias-free; otherwise keep
		// program order within the iteration (C without restrict).
		if !g.Loop.NoAlias {
			g.addEdge(Edge{From: e, To: l, Lat: g.aliasLat(eo, lo), Dist: 0, Kind: EdgeMem})
		}
		return
	}
	if em.Indirect || lm.Indirect {
		// Unknown addresses into the same array: serialize within and
		// across iterations.
		g.addEdge(Edge{From: e, To: l, Lat: g.aliasLat(eo, lo), Dist: 0, Kind: EdgeMem})
		g.addEdge(Edge{From: l, To: e, Lat: g.aliasLat(lo, eo), Dist: 1, Kind: EdgeMem})
		return
	}
	if em.Stride == lm.Stride {
		overlap0 := false
		if em.Stride == 0 {
			if rangesOverlap(em, lm) {
				g.addEdge(Edge{From: e, To: l, Lat: g.aliasLat(eo, lo), Dist: 0, Kind: EdgeMem})
				g.addEdge(Edge{From: l, To: e, Lat: g.aliasLat(lo, eo), Dist: 1, Kind: EdgeMem})
			}
			return
		}
		// Conflict distances, considering every element either wide access
		// covers: stride·d = (eOff+ke) − (lOff+kl).
		minFwd, minBwd := 0, 0 // 0 = none found
		for ke := 0; ke < em.SpanElems(); ke++ {
			for kl := 0; kl < lm.SpanElems(); kl++ {
				diff := em.Offset + ke - (lm.Offset + kl)
				if diff%em.Stride != 0 {
					continue
				}
				d := diff / em.Stride
				switch {
				case d == 0:
					overlap0 = true
				case d > 0:
					if minFwd == 0 || d < minFwd {
						minFwd = d
					}
				default:
					if minBwd == 0 || -d < minBwd {
						minBwd = -d
					}
				}
			}
		}
		if overlap0 {
			g.addEdge(Edge{From: e, To: l, Lat: g.aliasLat(eo, lo), Dist: 0, Kind: EdgeMem})
		}
		if minFwd > 0 {
			g.addEdge(Edge{From: e, To: l, Lat: g.aliasLat(eo, lo), Dist: minFwd, Kind: EdgeMem})
		}
		if minBwd > 0 {
			g.addEdge(Edge{From: l, To: e, Lat: g.aliasLat(lo, eo), Dist: minBwd, Kind: EdgeMem})
		}
		return
	}
	// Same array, different strides: conservative serialization.
	g.addEdge(Edge{From: e, To: l, Lat: g.aliasLat(eo, lo), Dist: 0, Kind: EdgeMem})
	g.addEdge(Edge{From: l, To: e, Lat: g.aliasLat(lo, eo), Dist: 1, Kind: EdgeMem})
}

// rangesOverlap reports whether two stride-0 references touch a common
// element.
func rangesOverlap(a, b *ir.MemRef) bool {
	return a.Offset < b.Offset+b.SpanElems() && b.Offset < a.Offset+a.SpanElems()
}

// aliasLat returns the ordering latency from one memory op to another:
// store→load forwards in one cycle, store→store keeps a cycle apart, and a
// load→store anti-dependence may share a cycle.
func (g *Graph) aliasLat(from, to *ir.Op) int {
	if from.Code == ir.OpLoad {
		return 0 // WAR
	}
	return 1 // RAW through memory (forwarded) or WAW
}

// addCtrlEdges serializes side exits and calls against the ops around them
// and anchors the back-edge branch after everything else.
func (g *Graph) addCtrlEdges() {
	n := len(g.Ops)
	brIdx := -1
	for i, op := range g.Ops {
		if op.Code == ir.OpBr {
			brIdx = i
		}
	}
	for i, op := range g.Ops {
		switch op.Code {
		case ir.OpCondBr:
			// Nothing after a side exit may move above it: its effects must
			// not happen if the loop exits.
			for j := i + 1; j < n; j++ {
				if g.Ops[j].Code == ir.OpBr {
					continue // the back edge is anchored separately
				}
				g.addEdge(Edge{From: i, To: j, Lat: 0, Dist: 0, Kind: EdgeCtrl})
			}
		case ir.OpCall:
			// Calls are scheduling barriers for memory and other calls.
			for j := 0; j < n; j++ {
				if j == i {
					continue
				}
				other := g.Ops[j]
				if !other.Code.IsMem() && other.Code != ir.OpCall && other.Code != ir.OpCondBr {
					continue
				}
				if j < i {
					g.addEdge(Edge{From: j, To: i, Lat: 1, Dist: 0, Kind: EdgeCtrl})
				} else {
					g.addEdge(Edge{From: i, To: j, Lat: g.Mach.CallCycles, Dist: 0, Kind: EdgeCtrl})
				}
			}
		}
	}
	if brIdx >= 0 {
		for i := range g.Ops {
			if i != brIdx {
				g.addEdge(Edge{From: i, To: brIdx, Lat: 0, Dist: 0, Kind: EdgeCtrl})
			}
		}
	}
}
