package analysis

import (
	"testing"

	"metaopt/internal/ir"
	"metaopt/internal/lang"
	"metaopt/internal/machine"
)

func mustGraph(t *testing.T, src string) *Graph {
	t.Helper()
	k, err := lang.ParseKernel(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	l, err := lang.Lower(k)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return Build(l, machine.Itanium2())
}

func findOp(g *Graph, code ir.Opcode) int {
	for i, op := range g.Ops {
		if op.Code == code {
			return i
		}
	}
	return -1
}

func hasEdge(g *Graph, from, to int, kind EdgeKind, dist int) bool {
	for _, e := range g.Out[from] {
		if e.To == to && e.Kind == kind && e.Dist == dist {
			return true
		}
	}
	return false
}

const daxpy = `
kernel daxpy lang=c {
	param double a;
	double x[], y[];
	noalias;
	for i = 0 .. 4096 { y[i] = y[i] + a * x[i]; }
}`

func TestDataEdges(t *testing.T) {
	g := mustGraph(t, daxpy)
	fma := findOp(g, ir.OpFMA)
	st := findOp(g, ir.OpStore)
	if fma < 0 || st < 0 {
		t.Fatal("missing ops")
	}
	if !hasEdge(g, fma, st, EdgeData, 0) {
		t.Error("missing fma→store data edge")
	}
	// Store value edge latency equals FMA latency.
	for _, e := range g.Out[fma] {
		if e.To == st && e.Lat != machine.Itanium2().FPLat {
			t.Errorf("fma→store latency = %d", e.Lat)
		}
	}
}

func TestMemSameLocationDep(t *testing.T) {
	// y[i] load and y[i] store conflict at distance 0 (load first).
	g := mustGraph(t, daxpy)
	st := findOp(g, ir.OpStore)
	// Find the y-load.
	yld := -1
	for i, op := range g.Ops {
		if op.Code == ir.OpLoad && op.Mem.Array == "y" {
			yld = i
		}
	}
	if yld < 0 {
		t.Fatal("no y load")
	}
	if !hasEdge(g, yld, st, EdgeMem, 0) {
		t.Error("missing load→store anti dependence")
	}
}

func TestMemCarriedDistance(t *testing.T) {
	g := mustGraph(t, `
kernel rec lang=c {
	double b[];
	for i = 2 .. 1000 { b[i] = b[i-2] * 0.5; }
}`)
	st := findOp(g, ir.OpStore)
	ld := findOp(g, ir.OpLoad)
	// store b[i] at iter i feeds load b[i-2] two iterations later.
	if !hasEdge(g, st, ld, EdgeMem, 2) {
		t.Errorf("missing store→load dist-2 dependence; edges = %v", g.Edges)
	}
}

func TestAliasConservatism(t *testing.T) {
	cSrc := `
kernel maybealias lang=c {
	double a[], b[];
	for i = 0 .. 100 { b[i] = a[i] + 1.0; }
}`
	g := mustGraph(t, cSrc)
	memEdges := 0
	for _, e := range g.Edges {
		if e.Kind == EdgeMem {
			memEdges++
		}
	}
	if memEdges == 0 {
		t.Error("C loop without noalias should have conservative mem edges")
	}
	gf := mustGraph(t, `
kernel nolias lang=fortran {
	double a[], b[];
	for i = 0 .. 100 { b[i] = a[i] + 1.0; }
}`)
	for _, e := range gf.Edges {
		if e.Kind == EdgeMem {
			t.Errorf("fortran loop should have no cross-array mem edges: %v", e)
		}
	}
}

func TestIndirectSerializes(t *testing.T) {
	g := mustGraph(t, `
kernel scatter lang=c {
	double a[];
	int idx[];
	noalias;
	for i = 0 .. 100 { a[idx[i]] = a[idx[i]] + 1.0; }
}`)
	carried := false
	for _, e := range g.Edges {
		if e.Kind == EdgeMem && e.Dist == 1 {
			carried = true
		}
	}
	if !carried {
		t.Error("indirect same-array refs should serialize across iterations")
	}
}

func TestCriticalPath(t *testing.T) {
	g := mustGraph(t, daxpy)
	m := machine.Itanium2()
	// Longest chain: load x (6) → fma (4) → store (1) = 11.
	want := m.FPLoadLat + m.FPLat + m.StoreLat
	if got := g.Shape().CriticalPath; got != want {
		t.Errorf("critical path = %d, want %d", got, want)
	}
}

func TestResMIIFractional(t *testing.T) {
	// Three FP ops on 2 F units: ResMII = 3/2.
	g := mustGraph(t, `
kernel f3 lang=fortran {
	double a[], b[], c[], d[];
	for i = 0 .. 100 { d[i] = a[i]*b[i] + a[i]*c[i] + b[i]*c[i]; }
}`)
	// With redundant-load elimination the body has 10 ops: 3 loads, 1 fmul,
	// 2 fma, store, iv add, cmp, br. Bounds: issue 10/6, F 3/2, M 4/4.
	num, den := g.ResMII()
	if num*6 != 10*den {
		t.Errorf("ResMII = %d/%d, want 10/6", num, den)
	}
}

func TestRecurrenceRatioReduction(t *testing.T) {
	g := mustGraph(t, `
kernel dot lang=fortran {
	double a[], b[];
	double s;
	for i = 0 .. 1024 { s = s + a[i]*b[i]; }
}`)
	num, den := g.RecurrenceRatio()
	m := machine.Itanium2()
	if den != 1 || num != m.FPLat {
		t.Errorf("recurrence ratio = %d/%d, want %d/1", num, den, m.FPLat)
	}
	if !g.HasRecurrence() {
		t.Error("HasRecurrence = false")
	}
}

func TestRecurrenceRatioIVOnly(t *testing.T) {
	// daxpy's only recurrence is the induction-variable increment: ratio 1.
	g := mustGraph(t, daxpy)
	num, den := g.RecurrenceRatio()
	if num != 1 || den != 1 {
		t.Errorf("daxpy recurrence ratio = %d/%d, want 1/1", num, den)
	}
	// Excluding the IV update leaves no recurrence at all.
	num, den = g.RecurrenceRatioExcluding(func(op *ir.Op) bool { return op.Name == "i" })
	if num != 0 || den != 1 {
		t.Errorf("non-IV recurrence ratio = %d/%d, want 0/1", num, den)
	}
}

func TestRecurrenceRatioMultiEdgeCycle(t *testing.T) {
	// Two mutually-carried scalars: t reads s@1, s reads (new) t. The cycle
	// spans two iterations.
	g := mustGraph(t, `
kernel pingpong lang=c {
	double a[];
	double s, t;
	for i = 0 .. 100 {
		t = s * 0.5;
		s = t + a[i];
	}
}`)
	num, den := g.RecurrenceRatio()
	if num <= 0 {
		t.Fatalf("expected positive recurrence ratio, got %d/%d", num, den)
	}
	m := machine.Itanium2()
	want := 2 * m.FPLat // fmul + fadd per trip around, dist 1
	if den != 1 || num != want {
		t.Errorf("recurrence ratio = %d/%d, want %d/1", num, den, want)
	}
}

func TestMII(t *testing.T) {
	g := mustGraph(t, `
kernel dot lang=fortran {
	double a[], b[];
	double s;
	for i = 0 .. 1024 { s = s + a[i]*b[i]; }
}`)
	if got := g.MII(); got != machine.Itanium2().FPLat {
		t.Errorf("MII = %d", got)
	}
}

func TestComponents(t *testing.T) {
	// Two independent computations: c[i] and d[i] chains.
	g := mustGraph(t, `
kernel two lang=fortran {
	double a[], b[], c[], d[];
	for i = 0 .. 100 {
		c[i] = a[i] + 1.0;
		d[i] = b[i] * 2.0;
	}
}`)
	// Expect: two value chains plus the loop-control component (iv/cmp) —
	// the iv-add/cmp chain is one more component.
	if got := g.Shape().Components; got != 3 {
		t.Errorf("components = %d, want 3", got)
	}
}

func TestDepHeightsAndFanIn(t *testing.T) {
	g := mustGraph(t, daxpy)
	s := g.Shape()
	max, mean := s.MaxDepHeight, s.AvgDepHeight
	if max <= 0 || mean <= 0 || float64(max) < mean {
		t.Errorf("heights = %d/%.2f", max, mean)
	}
	fmax, fmean := g.FanIn()
	if fmax < 2 { // fma has three inputs but one is a param
		t.Errorf("max fan-in = %d", fmax)
	}
	if fmean <= 0 {
		t.Errorf("mean fan-in = %f", fmean)
	}
}

func TestMemDeps(t *testing.T) {
	g := mustGraph(t, `
kernel rec lang=c {
	double b[];
	for i = 3 .. 1000 { b[i] = b[i-3] * 0.5; }
}`)
	count, minDist := g.MemDeps()
	if count == 0 {
		t.Fatal("no memory deps found")
	}
	if minDist != 3 {
		t.Errorf("min carried distance = %d, want 3", minDist)
	}
}

func TestChainHeights(t *testing.T) {
	g := mustGraph(t, `
kernel chain lang=c {
	double a[];
	noalias;
	for i = 1 .. 100 {
		a[i] = a[i-1] + 1.0;
		if (a[i] > 10.0) break;
	}
}`)
	if got := g.MemDepHeight(); got < 1 {
		t.Errorf("mem dep height = %d", got)
	}
	if got := g.CtrlDepHeight(); got < 2 { // fcmp → condbr at least
		t.Errorf("ctrl dep height = %d", got)
	}
}

func TestLiveValueEstimate(t *testing.T) {
	g := mustGraph(t, daxpy)
	peak := g.Shape().LivePeak
	if peak < 2 {
		t.Errorf("live estimate = %d", peak)
	}
	// A wider loop must have more simultaneously-live values.
	g2 := mustGraph(t, `
kernel wide lang=fortran {
	double a[], b[], c[], d[], e[], f[], o[];
	for i = 0 .. 100 {
		o[i] = a[i]*b[i] + c[i]*d[i] + e[i]*f[i];
	}
}`)
	if wide := g2.Shape().LivePeak; wide <= peak {
		t.Errorf("wide live %d <= daxpy live %d", wide, peak)
	}
}

func TestCtrlEdgesForExitAndCall(t *testing.T) {
	g := mustGraph(t, `
kernel exits lang=c {
	double a[];
	double s;
	for i = 0 .. n {
		if (a[i] == 0.0) break;
		s = s + a[i];
		call log();
	}
}`)
	cb := findOp(g, ir.OpCondBr)
	call := findOp(g, ir.OpCall)
	st := -1
	for i, op := range g.Ops {
		if op.Code == ir.OpFAdd || op.Code == ir.OpFMA {
			st = i
		}
	}
	if cb < 0 || call < 0 || st < 0 {
		t.Fatalf("ops missing: condbr=%d call=%d fadd=%d", cb, call, st)
	}
	if !hasEdge(g, cb, st, EdgeCtrl, 0) {
		t.Error("missing exit→op control edge")
	}
	br := findOp(g, ir.OpBr)
	if !hasEdge(g, cb, br, EdgeCtrl, 0) && !hasEdge(g, call, br, EdgeCtrl, 0) {
		// Back edge must be anchored after everything.
		t.Error("back edge not anchored")
	}
	// Loads before the call must not cross it.
	ld := findOp(g, ir.OpLoad)
	if !hasEdge(g, ld, call, EdgeCtrl, 0) {
		t.Error("missing mem→call barrier edge")
	}
}

func TestEstimatedCycleLength(t *testing.T) {
	g := mustGraph(t, daxpy)
	if s := g.Shape(); s.CycleLength < s.CriticalPath {
		t.Errorf("estimated cycle length %d < critical path %d", s.CycleLength, s.CriticalPath)
	}
}

func TestOpClassCounts(t *testing.T) {
	k, err := lang.ParseKernel(daxpy)
	if err != nil {
		t.Fatal(err)
	}
	l, err := lang.Lower(k)
	if err != nil {
		t.Fatal(err)
	}
	counts := OpClassCounts(l, machine.Itanium2())
	if counts[machine.UnitM] != 3 {
		t.Errorf("M ops = %d, want 3", counts[machine.UnitM])
	}
	if counts[machine.UnitF] != 1 {
		t.Errorf("F ops = %d, want 1", counts[machine.UnitF])
	}
	if counts[machine.UnitB] != 1 {
		t.Errorf("B ops = %d, want 1", counts[machine.UnitB])
	}
}
