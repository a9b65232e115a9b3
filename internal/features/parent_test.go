package features

import (
	"math"
	"testing"

	"metaopt/internal/analysis"
	"metaopt/internal/ir"
	"metaopt/internal/loopgen"
	"metaopt/internal/machine"
	"metaopt/internal/transform"
)

// parentExtract is Extract as it stood before the shape metrics became one
// pass over a pooled graph: a fresh analysis.Build, then separate ASAP
// passes for the critical path, the cycle length, the dependence heights
// and the live stats, and the component union-find run twice (once for
// the count, once inside the heights). It is the reference Extract must
// match bit for bit.
func parentExtract(l *ir.Loop, m *machine.Desc) []float64 {
	g := analysis.Build(l, m)
	v := make([]float64, NumFeatures)

	v[FNestLevel] = float64(l.NestLevel)
	v[FNumOps] = float64(l.NumOps())
	v[FTripCount] = float64(l.TripCount)
	if l.TripCount > 0 {
		v[FKnownTrip] = 1
	}
	if l.Lang != ir.LangC {
		v[FLangFortran] = 1
	}
	if l.EarlyExit {
		v[FEarlyExit] = 1
	}

	preds := map[int]bool{}
	for _, op := range l.Body {
		v[FNumOperands] += float64(len(op.Args))
		if op.Code.HasResult() {
			v[FNumDefs]++
		}
		for _, a := range op.Args {
			if !a.Op.Code.IsPseudo() {
				v[FNumUses]++
			}
		}
		if op.PredID != 0 {
			preds[op.PredID] = true
		}
		switch op.Code {
		case ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFMA, ir.OpFDiv, ir.OpFCmp:
			v[FNumFloatOps]++
		case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpShl, ir.OpShr, ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpCmp:
			v[FNumIntOps]++
		}
		switch op.Code {
		case ir.OpDiv, ir.OpFDiv:
			v[FNumDivides]++
		case ir.OpBr, ir.OpCondBr:
			v[FNumBranches]++
		case ir.OpCall:
			v[FNumCalls]++
		case ir.OpConv, ir.OpSel:
			v[FNumImplicit]++
		case ir.OpLoad:
			v[FNumLoads]++
			v[FNumMemOps]++
			classifyRef(op.Mem, m, v)
		case ir.OpStore:
			v[FNumStores]++
			v[FNumMemOps]++
			classifyRef(op.Mem, m, v)
		}
	}
	v[FNumImplicit]++
	v[FNumPredicates] = float64(len(preds))

	v[FCriticalPath] = float64(parentCriticalPath(g))
	v[FCycleLength] = float64(parentCycleLength(g))
	v[FParallelComps] = float64(len(parentComponents(g)))
	maxH, avgH := parentDepHeights(g)
	v[FMaxDepHeight] = float64(maxH)
	v[FAvgDepHeight] = avgH
	v[FMemDepHeight] = float64(g.MemDepHeight())
	v[FCtrlDepHeight] = float64(g.CtrlDepHeight())
	nDeps, minDist := g.MemDeps()
	v[FNumMemDeps] = float64(nDeps)
	v[FMinMemDist] = float64(minDist)
	fanMax, fanMean := g.FanIn()
	v[FMaxFanIn] = float64(fanMax)
	v[FMeanFanIn] = fanMean
	peak, sum := parentLiveStats(g)
	v[FLivePeak] = float64(peak)
	v[FLiveSum] = float64(sum)

	rn, rd := g.ResMII()
	v[FResMII] = float64(rn) / float64(rd)
	cn, cd := g.RecurrenceRatio()
	if cd > 0 {
		v[FRecMII] = float64(cn) / float64(cd)
	}
	return v
}

func parentASAP(g *analysis.Graph) []int {
	times := make([]int, len(g.Ops))
	for to := range g.Ops {
		for _, e := range g.In[to] {
			if e.Dist != 0 {
				continue
			}
			if t := times[e.From] + e.Lat; t > times[to] {
				times[to] = t
			}
		}
	}
	return times
}

func parentCriticalPath(g *analysis.Graph) int {
	times := parentASAP(g)
	best := 0
	for i, op := range g.Ops {
		if t := times[i] + g.Mach.Latency(op); t > best {
			best = t
		}
	}
	return best
}

func parentCycleLength(g *analysis.Graph) int {
	cp := parentCriticalPath(g)
	num, den := g.ResMII()
	if res := (num + den - 1) / den; res > cp {
		return res
	}
	return cp
}

// parentComponents keeps the map of groups, so its component order (and
// with it the order DepHeights summed the heights in) varies by run.
func parentComponents(g *analysis.Graph) [][]int {
	parent := make([]int, len(g.Ops))
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	isComp := func(op *ir.Op) bool { return op.Code != ir.OpBr }
	for _, e := range g.Edges {
		if e.Kind != analysis.EdgeData || !isComp(g.Ops[e.From]) || !isComp(g.Ops[e.To]) {
			continue
		}
		parent[find(e.From)] = find(e.To)
	}
	groups := map[int][]int{}
	for i, op := range g.Ops {
		if isComp(op) {
			r := find(i)
			groups[r] = append(groups[r], i)
		}
	}
	comps := make([][]int, 0, len(groups))
	for _, c := range groups {
		comps = append(comps, c)
	}
	return comps
}

func parentDepHeights(g *analysis.Graph) (max int, mean float64) {
	comps := parentComponents(g)
	if len(comps) == 0 {
		return 0, 0
	}
	times := parentASAP(g)
	var sum float64
	for _, comp := range comps {
		h := 0
		for _, i := range comp {
			if t := times[i] + g.Mach.Latency(g.Ops[i]); t > h {
				h = t
			}
		}
		if h > max {
			max = h
		}
		sum += float64(h)
	}
	return max, sum / float64(len(comps))
}

func parentLiveStats(g *analysis.Graph) (peak, sum int) {
	times := parentASAP(g)
	length := parentCriticalPath(g)
	if length == 0 {
		return 0, 0
	}
	delta := make([]int, length+2)
	for i, op := range g.Ops {
		if !op.Code.HasResult() {
			continue
		}
		def := times[i] + g.Mach.Latency(op)
		last := def
		carried := false
		for _, e := range g.Out[i] {
			if e.Kind != analysis.EdgeData {
				continue
			}
			if e.Dist > 0 {
				carried = true
				continue
			}
			if t := times[e.To]; t > last {
				last = t
			}
		}
		if carried {
			last = length
		}
		if def > length {
			def = length
		}
		if last > length {
			last = length
		}
		delta[def]++
		delta[last+1]--
		sum += last - def + 1
	}
	live := 0
	for _, d := range delta {
		live += d
		if live > peak {
			peak = live
		}
	}
	return peak, sum
}

// TestExtractMatchesParent requires Extract to give parentExtract's vector
// bit for bit for every loop of the seed-2005 corpus at scale 0.1 (0.05
// under -short), as lowered and unrolled by 1..8, on the paper's machine
// and the narrow one. A warm Extract allocates only the vector it returns,
// and the pooled graph it goes back with holds no pointer into the
// caller's loop.
func TestExtractMatchesParent(t *testing.T) {
	scale := 0.1
	if testing.Short() {
		scale = 0.05
	}
	machs := []*machine.Desc{machine.Itanium2(), machine.Embedded()}
	n := 0
	c, err := loopgen.Generate(loopgen.Options{Seed: 2005, LoopsScale: scale})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range c.Benchmarks {
		for _, l := range b.Loops {
			for u := 0; u <= transform.MaxFactor; u++ {
				ul := l // u = 0: the loop as lowered, which serve extracts
				if u > 0 {
					var err error
					if ul, _, err = transform.Unroll(l, u); err != nil {
						t.Fatalf("%s u=%d: %v", l.Name, u, err)
					}
				}
				for _, m := range machs {
					got, want := Extract(ul, m), parentExtract(ul, m)
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("%s/%s u=%d on %s: %s = %v, parent %v",
								b.Name, l.Name, u, m.Name, Names[i], got[i], want[i])
						}
					}
					n++
				}
			}
		}
	}
	t.Logf("%d (loop, u, machine) vectors match", n)

	l := lower(t, `
kernel k lang=c {
	double a[], b[];
	double s;
	for i = 1 .. 512 {
		if (a[i] > 0.0) { b[i] = a[i-1] * 2.0 + b[i]; }
		s = s + b[i];
	}
}`)
	for _, m := range machs {
		extract := func() { Extract(l, m) }
		extract()
		if raceEnabled {
			continue
		}
		if allocs := testing.AllocsPerRun(100, extract); allocs > 1 {
			t.Errorf("%s: a warm Extract allocates %v times, want at most 1 (the vector)", m.Name, allocs)
		}
	}
	w := workspacePool.Get().(*workspace)
	defer workspacePool.Put(w)
	if w.graph.Loop != nil || w.graph.Ops != nil {
		t.Error("a pooled extraction graph still points into the last loop")
	}
}
