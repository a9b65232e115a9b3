package analysis

import (
	"fmt"
	"slices"
	"testing"

	"metaopt/internal/ir"
	"metaopt/internal/loopgen"
	"metaopt/internal/machine"
	"metaopt/internal/transform"
)

// refRecurrenceRatioExcluding and refMinFeasibleII are the searches as
// they stood before the cyclic-core peel: every positiveCycle pass runs
// over all the kept edges and all the ops.
func refRecurrenceRatioExcluding(g *Graph, exclude func(*ir.Op) bool) (num, den int) {
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
	dist := make([]int64, n)
	lo, hi := 0, maxII
	if !positiveCycle(edges, dist, 1, 0) {
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
	const maxDen = 8
	bestNum, bestDen := hi, 1
	for d := 2; d <= maxDen; d++ {
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

func refMinFeasibleII(g *Graph, lo, hi int) int {
	dist := make([]int64, len(g.Ops))
	for lo < hi {
		mid := lo + (hi-lo)/2
		if positiveCycle(g.Edges, dist, 1, mid) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// ivUpdate is the exclusion sim and heuristic pass: the induction update,
// whose self-recurrence unrolling folds away.
func ivUpdate(op *ir.Op) bool {
	return op.Code == ir.OpAdd && slices.ContainsFunc(op.Args, func(a ir.ArgRef) bool {
		return a.Op == op && a.Dist == 1
	})
}

// TestCyclicCoreMatchesFullGraph pins the recurrence searches on the
// cyclic core to the searches over every edge, on every loop of the
// seed-2005 corpus at scale 0.1, rolled and unrolled by 1–8, on both
// machines the modulo-scheduler tests use: the ratio with and without the
// induction-update exclusion, and the smallest feasible II over the II
// ranges swp.Schedule searches from either starting estimate sim and the
// tests pass.
func TestCyclicCoreMatchesFullGraph(t *testing.T) {
	c, err := loopgen.Generate(loopgen.Options{Seed: 2005, LoopsScale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []*machine.Desc{machine.Itanium2(), machine.Embedded()} {
		t.Run(m.Name, func(t *testing.T) {
			t.Parallel()
			graphs, peeled := 0, 0
			for _, b := range c.Benchmarks {
				for _, l := range b.Loops {
					rolled := Build(l, m)
					rn, rd := rolled.RecurrenceRatioExcluding(ivUpdate)
					for u := 0; u <= transform.MaxFactor; u++ {
						g, name := rolled, fmt.Sprintf("%s/%s/rolled", b.Name, l.Name)
						if u > 0 {
							ul, _, err := transform.Unroll(l, u)
							if err != nil {
								t.Fatal(err)
							}
							g, name = Build(ul, m), fmt.Sprintf("%s/%s/u%d", b.Name, l.Name, u)
						}
						graphs++
						if _, k := cyclicCore(g.Edges, len(g.Ops)); k > 0 && k < len(g.Ops) {
							peeled++
						}
						for _, ex := range []func(*ir.Op) bool{nil, ivUpdate} {
							gn, gd := g.RecurrenceRatioExcluding(ex)
							wn, wd := refRecurrenceRatioExcluding(g, ex)
							if gn != wn || gd != wd {
								t.Fatalf("%s (exclude %t): ratio %d/%d, full graph %d/%d", name, ex != nil, gn, gd, wn, wd)
							}
						}
						num, den := g.ResMII()
						resMII := (num + den - 1) / den
						simMII := resMII
						if rn > 0 && rd > 0 {
							simMII = max(simMII, (max(u, 1)*rn+rd-1)/rd)
						}
						for _, mii := range []int{resMII, simMII} {
							hi := 4*mii + 65
							for _, lo := range []int{1, mii, mii + 1} {
								if got, want := g.MinFeasibleII(lo, hi), refMinFeasibleII(g, lo, hi); got != want {
									t.Fatalf("%s: MinFeasibleII(%d, %d) = %d, full graph %d", name, lo, hi, got, want)
								}
							}
						}
					}
				}
			}
			if peeled == 0 {
				t.Fatal("no graph has a nonempty core smaller than itself; the sample does not exercise the peel")
			}
			t.Logf("%d graphs match, %d with a nonempty core smaller than the graph", graphs, peeled)
		})
	}
}

// fixture builds a graph over n ops with the given edges. Only the op
// count matters to the recurrence searches without an exclusion.
func fixture(n int, edges ...Edge) *Graph {
	return &Graph{Ops: make([]*ir.Op, n), Edges: edges}
}

// TestCyclicCoreFixtures checks the peel and the searches on three shapes:
// two cycles joined by a bridge edge, where every node and edge survives;
// a cycle at the end of a long chain, where the chain peels away; and an
// edgeless graph, whose core is empty.
func TestCyclicCoreFixtures(t *testing.T) {
	// Cycle A (0→1→0) has ratio (3+1)/1; cycle B (2→3→2) has (2+3)/2; the
	// bridge 1→2 joins them without closing a cycle. Node 0's only
	// in-edge comes from node 1, so the peel must keep nodes with one.
	bridge := fixture(4,
		Edge{From: 0, To: 1, Lat: 3},
		Edge{From: 1, To: 0, Lat: 1, Dist: 1},
		Edge{From: 1, To: 2, Lat: 1},
		Edge{From: 2, To: 3, Lat: 2},
		Edge{From: 3, To: 2, Lat: 3, Dist: 2},
	)
	// A 20-edge chain 0→1→…→20 into a two-op cycle 20→21→20 of ratio
	// 7/3, which feeds op 22's self-loop of ratio 1/1. The chain peels
	// away; the self-loop alone keeps op 22.
	chain := fixture(23,
		Edge{From: 20, To: 21, Lat: 5},
		Edge{From: 21, To: 20, Lat: 2, Dist: 3},
		Edge{From: 21, To: 22, Lat: 1},
		Edge{From: 22, To: 22, Lat: 1, Dist: 1},
	)
	for v := 0; v < 20; v++ {
		chain.Edges = append(chain.Edges, Edge{From: v, To: v + 1, Lat: 4})
	}
	edgeless := fixture(5)

	for _, c := range []struct {
		name             string
		g                *Graph
		coreOps, coreLen int
		num, den, minII  int
	}{
		{"bridge", bridge, 4, 5, 4, 1, 4},
		{"chain", chain, 3, 4, 7, 3, 3},
		{"edgeless", edgeless, 0, 0, 0, 1, 1},
	} {
		core, k := cyclicCore(c.g.Edges, len(c.g.Ops))
		if k != c.coreOps || len(core) != c.coreLen {
			t.Errorf("%s: core of %d ops and %d edges, want %d and %d", c.name, k, len(core), c.coreOps, c.coreLen)
		}
		for _, e := range core {
			if e.From < 0 || e.From >= k || e.To < 0 || e.To >= k {
				t.Errorf("%s: core edge %v outside [0, %d)", c.name, e, k)
			}
		}
		if num, den := c.g.RecurrenceRatio(); num != c.num || den != c.den {
			t.Errorf("%s: ratio %d/%d, want %d/%d", c.name, num, den, c.num, c.den)
		}
		if got := c.g.MinFeasibleII(1, 64); got != c.minII {
			t.Errorf("%s: MinFeasibleII(1, 64) = %d, want %d", c.name, got, c.minII)
		}
		if num, den := refRecurrenceRatioExcluding(c.g, nil); num != c.num || den != c.den {
			t.Errorf("%s: full-graph ratio %d/%d, want %d/%d", c.name, num, den, c.num, c.den)
		}
	}
}
