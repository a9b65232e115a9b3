package analysis

import (
	"slices"
	"testing"

	"metaopt/internal/ir"
	"metaopt/internal/lang"
	"metaopt/internal/machine"
	"metaopt/internal/transform"
)

func mustLoop(t *testing.T, src string, u int) *ir.Loop {
	t.Helper()
	k, err := lang.ParseKernel(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	l, err := lang.Lower(k)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	if l, _, err = transform.Unroll(l, u); err != nil {
		t.Fatalf("unroll: %v", err)
	}
	return l
}

// aliasKernel is a C loop without noalias: unrolled, its memory-ordering
// edges between copies dominate the edge count.
const aliasKernel = `
kernel stencil lang=c {
	double a[], b[], c[];
	double s;
	for i = 1 .. 1023 {
		b[i] = a[i-1] + a[i+1] * c[i];
		s = s + b[i];
		if (s > 100.0) { c[i] = s; }
	}
}`

// TestGraphResetMatchesBuild reuses one Graph across a large unrolled body,
// a small one, an edgeless one and the large one again; each reset must
// equal a fresh Build.
func TestGraphResetMatchesBuild(t *testing.T) {
	large := mustLoop(t, aliasKernel, 8)
	small := mustLoop(t, daxpy, 1)
	edgeless := ir.NewLoop("edgeless")
	p := edgeless.NewParam("p")
	edgeless.NewOp(ir.OpAdd, ir.Use(p), ir.Use(p))
	edgeless.NewOp(ir.OpAdd, ir.Use(p), ir.Use(p))

	m := machine.Itanium2()
	var g Graph
	for _, l := range []*ir.Loop{large, small, edgeless, large} {
		if got := g.Reset(l, m); got != &g {
			t.Fatalf("%s: Reset returned a different graph", l.Name)
		}
		want := Build(l, m)
		if g.Loop != want.Loop || g.Mach != want.Mach || !slices.Equal(g.Ops, want.Ops) {
			t.Fatalf("%s: Loop, Mach or Ops differ from Build", l.Name)
		}
		if !slices.Equal(g.Edges, want.Edges) {
			t.Fatalf("%s: Edges differ from Build:\n got %v\nwant %v", l.Name, g.Edges, want.Edges)
		}
		if len(g.Out) != len(l.Body) || len(g.In) != len(l.Body) {
			t.Fatalf("%s: %d Out and %d In lists for %d ops", l.Name, len(g.Out), len(g.In), len(l.Body))
		}
		for i := range l.Body {
			if !slices.Equal(g.Out[i], want.Out[i]) || !slices.Equal(g.In[i], want.In[i]) {
				t.Fatalf("%s: adjacency of op %d differs from Build", l.Name, i)
			}
		}
	}
	if len(Build(large, m).Edges) < 10*len(Build(small, m).Edges) {
		t.Fatal("the large body is not much larger than the small one")
	}
}

// TestGraphResetZeroAllocs pins a warmed graph's reset at zero heap
// allocations.
func TestGraphResetZeroAllocs(t *testing.T) {
	l := mustLoop(t, aliasKernel, 8)
	m := machine.Itanium2()
	g := Build(l, m)
	allocs := testing.AllocsPerRun(100, func() {
		g.Reset(l, m)
	})
	if allocs != 0 {
		t.Errorf("Reset allocates %v per run, want 0", allocs)
	}
}

// TestMinFeasibleII checks the smallest recurrence-feasible II against the
// recurrence ratio of the reduction and two-scalar fixtures, and the
// empty-range answer.
func TestMinFeasibleII(t *testing.T) {
	for _, src := range []string{`
kernel dot lang=fortran {
	double a[], b[];
	double s;
	for i = 0 .. 1024 { s = s + a[i]*b[i]; }
}`, `
kernel pingpong lang=c {
	double a[];
	double s, t;
	for i = 0 .. 100 {
		t = s * 0.5;
		s = t + a[i];
	}
}`} {
		g := mustGraph(t, src)
		num, den := g.RecurrenceRatio()
		want := ceilDiv(num, den)
		if got := g.MinFeasibleII(1, 1000); got != want {
			t.Errorf("%s: MinFeasibleII(1, 1000) = %d, want ⌈%d/%d⌉ = %d", g.Loop.Name, got, num, den, want)
		}
		if got := g.MinFeasibleII(want, want+1); got != want {
			t.Errorf("%s: MinFeasibleII(%d, %d) = %d, want %d", g.Loop.Name, want, want+1, got, want)
		}
		if got := g.MinFeasibleII(want+3, 1000); got != want+3 {
			t.Errorf("%s: MinFeasibleII(%d, 1000) = %d, want the lower end", g.Loop.Name, want+3, got)
		}
		// No II in [1, want) is feasible: the answer is hi.
		if got := g.MinFeasibleII(1, want); got != want {
			t.Errorf("%s: MinFeasibleII(1, %d) = %d, want hi", g.Loop.Name, want, got)
		}
		if got := g.MinFeasibleII(1, 2); got != 2 {
			t.Errorf("%s: MinFeasibleII(1, 2) = %d, want hi", g.Loop.Name, got)
		}
	}
}
