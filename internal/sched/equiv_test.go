package sched

import (
	"sort"
	"testing"

	"metaopt/internal/analysis"
	"metaopt/internal/lang"
	"metaopt/internal/machine"
	"metaopt/internal/transform"
)

// referenceList is the pre-heap list scheduler kept verbatim as a test
// oracle: each pass stable-sorts the ready list by descending height. The
// production scheduler's (height desc, arrival seq asc) heap must place
// every op at exactly the same cycle.
func referenceList(g *analysis.Graph) *Schedule {
	n := len(g.Ops)
	s := &Schedule{Graph: g, Cycle: make([]int, n)}
	if n == 0 {
		s.Period = 1
		return s
	}
	m := g.Mach
	height := make([]int, n)
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
	preds := make([]int, n)
	earliest := make([]int, n)
	for i := range g.Ops {
		for _, e := range g.In[i] {
			if e.Dist == 0 {
				preds[i]++
			}
		}
	}
	var ready []int
	for i := range g.Ops {
		if preds[i] == 0 {
			ready = append(ready, i)
		}
	}
	var unitUse [machine.NumUnitKinds][]int
	var issueUse []int
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
		for {
			sort.SliceStable(ready, func(a, b int) bool { return height[ready[a]] > height[ready[b]] })
			var deferred []int
			placedAny := false
			for _, op := range ready {
				if earliest[op] > cycle || !fits(op, cycle) {
					deferred = append(deferred, op)
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
						deferred = append(deferred, e.To)
					}
				}
			}
			ready = deferred
			if !placedAny {
				break
			}
		}
		cycle++
	}
	s.Period = s.Length + m.BranchCycles - 1
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

var equivKernels = []string{
	daxpy,
	`
kernel mixed lang=c {
	double a[], b[], c[];
	int k[];
	for i = 0 .. 512 {
		c[i] = a[i]*b[i] + a[i]/b[i];
		k[i] = k[i] + 3;
	}
}`,
	`
kernel reduce lang=fortran {
	double a[];
	double s;
	for i = 0 .. 256 { s = s + a[i]*a[i]; }
}`,
	`
kernel stencil lang=c {
	double a[], b[];
	for i = 1 .. 1000 { b[i] = a[i-1] + a[i] + a[i+1]; }
}`,
}

// TestHeapMatchesStableSort places every kernel at every unroll factor with
// both the heap scheduler and the stable-sort oracle and requires
// cycle-exact agreement.
func TestHeapMatchesStableSort(t *testing.T) {
	m := machine.Itanium2()
	var sc Scheduler
	var s Schedule
	for _, src := range equivKernels {
		k, err := lang.ParseKernel(src)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		l, err := lang.Lower(k)
		if err != nil {
			t.Fatalf("lower: %v", err)
		}
		for u := 1; u <= transform.MaxFactor; u++ {
			ul, _, err := transform.Unroll(l, u)
			if err != nil {
				t.Fatalf("%s u=%d: unroll: %v", l.Name, u, err)
			}
			g := analysis.Build(ul, m)
			got := sc.ListInto(g, &s)
			want := referenceList(g)
			if got.Length != want.Length || got.Period != want.Period {
				t.Fatalf("%s u=%d: length/period = %d/%d, want %d/%d",
					l.Name, u, got.Length, got.Period, want.Length, want.Period)
			}
			for i := range want.Cycle {
				if got.Cycle[i] != want.Cycle[i] {
					t.Fatalf("%s u=%d: op %d at cycle %d, oracle says %d",
						l.Name, u, i, got.Cycle[i], want.Cycle[i])
				}
			}
			if err := got.Verify(); err != nil {
				t.Fatalf("%s u=%d: %v", l.Name, u, err)
			}
		}
	}
}

// TestListIntoZeroAllocs pins a Scheduler's steady state at zero heap
// allocations per call.
func TestListIntoZeroAllocs(t *testing.T) {
	k, err := lang.ParseKernel(daxpy)
	if err != nil {
		t.Fatal(err)
	}
	l, err := lang.Lower(k)
	if err != nil {
		t.Fatal(err)
	}
	ul, _, err := transform.Unroll(l, 4)
	if err != nil {
		t.Fatal(err)
	}
	g := analysis.Build(ul, machine.Itanium2())
	var sc Scheduler
	var s Schedule
	sc.ListInto(g, &s) // warm the scratch state
	allocs := testing.AllocsPerRun(100, func() {
		sc.ListInto(g, &s)
	})
	if allocs != 0 {
		t.Errorf("ListInto allocates %v per run, want 0", allocs)
	}
}
