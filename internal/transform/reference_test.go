package transform

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"metaopt/internal/ir"
	"metaopt/internal/loopgen"
)

// refUnroll restates the map-based unroller UnrollInto replaced: a
// pointer-keyed clone, per-copy clone maps, Kahn's algorithm rescanning its
// frontier from position 0, map-keyed cleanups and coalescing groups
// visited in map order. UnrollInto must reproduce it exactly.
func refUnroll(l *ir.Loop, u int) (*ir.Loop, *Info, error) {
	if u < 1 {
		return nil, nil, fmt.Errorf("transform: unroll factor %d", u)
	}
	iv, cmp, br, err := loopControl(l)
	if err != nil {
		return nil, nil, err
	}
	info := &Info{U: u}
	if u == 1 {
		out := refClone(l)
		info.IV = findByID(out, iv.ID)
		refCleanups(out, info)
		return out, info, nil
	}

	out := ir.NewLoop(l.Name)
	refHeader(out, l)
	paramMap := make(map[*ir.Op]*ir.Op, len(l.Params))
	for _, p := range l.Params {
		var np *ir.Op
		if p.Code == ir.OpParam {
			np = out.NewParam(p.Name)
		} else {
			np = out.NewConst(p.Name)
		}
		np.FP = p.FP
		paramMap[p] = np
	}
	var repl []*ir.Op
	maxPred := 0
	for _, op := range l.Body {
		if op == iv || op == cmp || op == br {
			continue
		}
		repl = append(repl, op)
		if op.PredID > maxPred {
			maxPred = op.PredID
		}
	}
	clones := make([]map[*ir.Op]*ir.Op, u)
	for k := 0; k < u; k++ {
		clones[k] = make(map[*ir.Op]*ir.Op, len(repl))
		for _, op := range repl {
			nc := out.NewOp(op.Code)
			nc.FP = op.FP
			nc.Name = op.Name
			nc.Predicated = op.Predicated
			if op.PredID != 0 {
				nc.PredID = op.PredID + k*(maxPred+1)
			}
			if op.Mem != nil {
				m := *op.Mem
				m.Stride = op.Mem.Stride * u
				m.Offset = op.Mem.Offset + op.Mem.Stride*k
				nc.Mem = &m
			}
			clones[k][op] = nc
		}
	}
	step := out.NewConst(fmt.Sprint(u))
	newIV := out.NewOp(ir.OpAdd, ir.Use(step))
	newIV.Name = iv.Name
	newIV.Args = append(newIV.Args, ir.Carried(newIV, 1))
	info.IV = newIV
	ivValue := make([]*ir.Op, u)
	ivFor := func(k int) ir.ArgRef {
		if k == 0 {
			return ir.Carried(newIV, 1)
		}
		if ivValue[k] == nil {
			c := out.NewConst(fmt.Sprint(k))
			add := out.NewOp(ir.OpAdd, ir.Carried(newIV, 1), ir.Use(c))
			add.Name = fmt.Sprintf("%s+%d", iv.Name, k)
			ivValue[k] = add
		}
		return ir.Use(ivValue[k])
	}
	remap := func(a ir.ArgRef, k int) ir.ArgRef {
		if np, ok := paramMap[a.Op]; ok {
			return ir.ArgRef{Op: np, Dist: 0}
		}
		if a.Op == iv {
			return ivFor(k)
		}
		j := k - a.Dist
		if j >= 0 {
			return ir.Use(clones[j][a.Op])
		}
		dist := (-j + u - 1) / u
		src := ((j % u) + u) % u
		return ir.Carried(clones[src][a.Op], dist)
	}
	for k := 0; k < u; k++ {
		for _, op := range repl {
			nc := clones[k][op]
			for _, a := range op.Args {
				nc.Args = append(nc.Args, remap(a, k))
			}
		}
	}
	newCmp := out.NewOp(ir.OpCmp, ir.Use(newIV))
	newCmp.Name = cmp.Name
	for _, a := range cmp.Args {
		if a.Op == iv {
			continue
		}
		newCmp.Args = append(newCmp.Args, remap(a, u-1))
	}
	out.NewOp(ir.OpBr, ir.Use(newCmp))
	if err := refReorder(out); err != nil {
		return nil, nil, err
	}
	refCleanups(out, info)
	if err := out.Validate(); err != nil {
		return nil, nil, fmt.Errorf("transform: unroll %s by %d: %w", l.Name, u, err)
	}
	return out, info, nil
}

func refHeader(dst, l *ir.Loop) {
	dst.Benchmark, dst.Lang, dst.NestLevel, dst.TripCount = l.Benchmark, l.Lang, l.NestLevel, l.TripCount
	dst.EarlyExit, dst.NoAlias, dst.RuntimeTrip, dst.Entries = l.EarlyExit, l.NoAlias, l.RuntimeTrip, l.Entries
}

// refClone is the pointer-keyed deep copy. It allocates one op per ID, in
// ID order, so the copy keeps every ID and MaxID.
func refClone(l *ir.Loop) *ir.Loop {
	c := ir.NewLoop(l.Name)
	refHeader(c, l)
	byID := map[int]*ir.Op{}
	for _, op := range append(append([]*ir.Op{}, l.Params...), l.Body...) {
		byID[op.ID] = op
	}
	remap := map[*ir.Op]*ir.Op{}
	for id := 0; id < l.MaxID(); id++ {
		n := c.NewConst("")
		if op, ok := byID[id]; ok {
			n.Code, n.FP, n.Predicated, n.PredID, n.Name = op.Code, op.FP, op.Predicated, op.PredID, op.Name
			if op.Mem != nil {
				m := *op.Mem
				n.Mem = &m
			}
			remap[op] = n
		}
	}
	c.Params = nil
	for _, p := range l.Params {
		c.Params = append(c.Params, remap[p])
	}
	for _, op := range l.Body {
		n := remap[op]
		for _, a := range op.Args {
			n.Args = append(n.Args, ir.ArgRef{Op: remap[a.Op], Dist: a.Dist})
		}
		c.Body = append(c.Body, n)
	}
	return c
}

func refReorder(l *ir.Loop) error {
	n := len(l.Body)
	index := make(map[*ir.Op]int, n)
	for i, op := range l.Body {
		index[op] = i
	}
	indeg := make([]int, n)
	succs := make([][]int, n)
	for i, op := range l.Body {
		for _, a := range op.Args {
			if a.Dist != 0 {
				continue
			}
			if j, ok := index[a.Op]; ok {
				succs[j] = append(succs[j], i)
				indeg[i]++
			}
		}
	}
	var order []int
	frontier := make([]bool, n)
	for i, d := range indeg {
		if d == 0 {
			frontier[i] = true
		}
	}
	for len(order) < n {
		picked := -1
		for i := 0; i < n; i++ {
			if frontier[i] {
				picked = i
				break
			}
		}
		if picked < 0 {
			return fmt.Errorf("transform: %s: cycle in dist-0 dependences", l.Name)
		}
		frontier[picked] = false
		order = append(order, picked)
		for _, s := range succs[picked] {
			indeg[s]--
			if indeg[s] == 0 {
				frontier[s] = true
			}
		}
	}
	body := make([]*ir.Op, n)
	for pos, i := range order {
		body[pos] = l.Body[i]
	}
	l.Body = body
	return nil
}

// memLoc identifies an affine memory location: the map key of the
// reference cleanups.
type memLoc struct {
	array  string
	stride int
	offset int
}

func locKey(m *ir.MemRef) memLoc {
	return memLoc{m.Array, m.Stride, m.Offset}
}

func refCleanups(l *ir.Loop, info *Info) {
	refForwardLoads(l, info)
	refDeadStores(l, info)
	refCoalesce(l, info, ir.OpLoad)
	refCoalesce(l, info, ir.OpStore)
}

func refForwardLoads(l *ir.Loop, info *Info) {
	values := map[memLoc]ir.ArgRef{}
	killArray := func(array string) {
		if array == "" || !l.NoAlias {
			clear(values)
			return
		}
		for k := range values {
			if k.array == array {
				delete(values, k)
			}
		}
	}
	removed := map[*ir.Op]ir.ArgRef{}
	for _, op := range l.Body {
		switch op.Code {
		case ir.OpCall:
			killArray("")
		case ir.OpLoad:
			if op.Predicated || op.Mem.Indirect {
				continue
			}
			key := locKey(op.Mem)
			if v, ok := values[key]; ok {
				removed[op] = v
				info.ForwardedLoads++
				continue
			}
			values[key] = ir.Use(op)
		case ir.OpStore:
			if op.Mem.Indirect {
				killArray(op.Mem.Array)
				continue
			}
			if op.Predicated {
				delete(values, locKey(op.Mem))
				if !l.NoAlias {
					killArray("")
				}
				continue
			}
			if !l.NoAlias {
				killArray("")
			}
			values[locKey(op.Mem)] = op.Args[len(op.Args)-1]
		}
	}
	if len(removed) > 0 {
		refRewrite(l, removed)
	}
}

func refRewrite(l *ir.Loop, removed map[*ir.Op]ir.ArgRef) {
	resolve := func(op *ir.Op, dist int) ir.ArgRef {
		ref := ir.ArgRef{Op: op, Dist: dist}
		for {
			r, ok := removed[ref.Op]
			if !ok {
				return ref
			}
			ref = ir.ArgRef{Op: r.Op, Dist: ref.Dist + r.Dist}
		}
	}
	for _, op := range l.Body {
		for i := range op.Args {
			if _, ok := removed[op.Args[i].Op]; ok {
				op.Args[i] = resolve(op.Args[i].Op, op.Args[i].Dist)
			}
		}
	}
	keep := l.Body[:0]
	for _, op := range l.Body {
		if _, dead := removed[op]; !dead {
			keep = append(keep, op)
		}
	}
	l.Body = keep
}

func refDeadStores(l *ir.Loop, info *Info) {
	dead := map[*ir.Op]bool{}
	covered := map[memLoc]bool{}
	for i := len(l.Body) - 1; i >= 0; i-- {
		op := l.Body[i]
		switch op.Code {
		case ir.OpCall, ir.OpCondBr:
			clear(covered)
		case ir.OpLoad:
			if op.Mem.Indirect || !l.NoAlias {
				clear(covered)
			} else {
				delete(covered, locKey(op.Mem))
			}
		case ir.OpStore:
			if op.Mem.Indirect {
				clear(covered)
				continue
			}
			key := locKey(op.Mem)
			if covered[key] && !op.Predicated {
				dead[op] = true
				info.DeadStores++
				continue
			}
			if !op.Predicated {
				covered[key] = true
			}
		}
	}
	keep := l.Body[:0]
	for _, op := range l.Body {
		if !dead[op] {
			keep = append(keep, op)
		}
	}
	l.Body = keep
}

func refCoalesce(l *ir.Loop, info *Info, code ir.Opcode) {
	pos := make(map[*ir.Op]int, len(l.Body))
	for i, op := range l.Body {
		pos[op] = i
	}
	groups := map[groupKey][]*ir.Op{}
	for _, op := range l.Body {
		if op.Code != code || op.Predicated || op.Mem.Indirect {
			continue
		}
		k := groupKey{op.Mem.Array, op.Mem.Stride, op.Mem.Elem.Bytes, op.Mem.Elem.Float}
		groups[k] = append(groups[k], op)
	}
	barrier := func(a, b int, array string) bool {
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		for i := lo + 1; i < hi; i++ {
			op := l.Body[i]
			switch op.Code {
			case ir.OpCall:
				return true
			case ir.OpStore:
				if !l.NoAlias || op.Mem.Array == array || op.Mem.Indirect {
					return true
				}
			case ir.OpLoad:
				if code == ir.OpStore && (!l.NoAlias || op.Mem.Array == array || op.Mem.Indirect) {
					return true
				}
			case ir.OpCondBr:
				if code == ir.OpStore {
					return true
				}
			}
		}
		return false
	}
	removedLoads := map[*ir.Op]ir.ArgRef{}
	removedStores := map[*ir.Op]bool{}
	removedIn := func(op *ir.Op) bool {
		_, ok := removedLoads[op]
		return ok || removedStores[op]
	}
	for key, ops := range groups {
		sort.Slice(ops, func(i, j int) bool { return ops[i].Mem.Offset < ops[j].Mem.Offset })
		for i := 0; i+1 < len(ops); i++ {
			a, b := ops[i], ops[i+1]
			if removedIn(a) || removedIn(b) || b.Mem.Offset != a.Mem.Offset+1 || barrier(pos[a], pos[b], key.array) {
				continue
			}
			first, second := a, b
			if pos[b] < pos[a] {
				first, second = b, a
			}
			lowOff := a.Mem.Offset
			if code == ir.OpLoad {
				removedLoads[second] = ir.Use(first)
				first.Mem.Offset = lowOff
				first.Mem.Span = 2
				info.CoalescedLoads++
			} else {
				second.Args = append(second.Args, first.Args...)
				second.Mem.Offset = lowOff
				second.Mem.Span = 2
				removedStores[first] = true
				info.CoalescedStores++
			}
			i++
		}
	}
	if len(removedLoads) > 0 {
		refRewrite(l, removedLoads)
	}
	if len(removedStores) > 0 {
		keep := l.Body[:0]
		for _, op := range l.Body {
			if !removedStores[op] {
				keep = append(keep, op)
			}
		}
		l.Body = keep
	}
}

// dump renders every field of every op, params included, so a stale
// field left in a reused op, MemRef or argument list shows.
func dump(l *ir.Loop) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s maxID=%d\n", l.AppendText(nil), l.MaxID())
	for _, ops := range [][]*ir.Op{l.Params, l.Body} {
		for _, op := range ops {
			fmt.Fprintf(&b, "v%d %s fp=%v pred=%v/%d name=%q", op.ID, op.Code, op.FP, op.Predicated, op.PredID, op.Name)
			if op.Mem != nil {
				fmt.Fprintf(&b, " mem=%+v", *op.Mem)
			}
			for _, a := range op.Args {
				fmt.Fprintf(&b, " v%d@%d", a.Op.ID, a.Dist)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// checkAgainstRef unrolls l by u into dst and through refUnroll and
// reports any difference in the loop or the Info counters.
func checkAgainstRef(t *testing.T, dst, l *ir.Loop, u int) {
	t.Helper()
	want, wantInfo, wantErr := refUnroll(l, u)
	gotInfo, gotErr := UnrollInto(dst, l, u)
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("%s u=%d: error %v, reference %v", l.Name, u, gotErr, wantErr)
	}
	if wantErr != nil {
		return
	}
	if got, want := string(dst.AppendText(nil)), string(want.AppendText(nil)); got != want {
		t.Fatalf("%s u=%d: text differs from the reference\ngot:\n%s\nwant:\n%s", l.Name, u, got, want)
	}
	if got, want := dump(dst), dump(want); got != want {
		t.Fatalf("%s u=%d: ops differ from the reference\ngot:\n%s\nwant:\n%s", l.Name, u, got, want)
	}
	g, w := *gotInfo, *wantInfo
	if g.IV.ID != w.IV.ID {
		t.Fatalf("%s u=%d: IV v%d, reference v%d", l.Name, u, g.IV.ID, w.IV.ID)
	}
	g.IV, w.IV = nil, nil
	if g != w {
		t.Fatalf("%s u=%d: info %+v, reference %+v", l.Name, u, g, w)
	}
}

// TestUnrollIntoMatchesParent unrolls every loop of the seed-2005 corpus at
// scale 0.1 at every factor into one reused destination and compares each
// result with refUnroll. The largest outputs come first, so the
// destination's slabs never grow again and every later loop is built over
// a previous one's ops, MemRefs and arguments.
func TestUnrollIntoMatchesParent(t *testing.T) {
	c, err := loopgen.Generate(loopgen.Options{Seed: 2005, LoopsScale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	type job struct {
		l *ir.Loop
		u int
	}
	var jobs []job
	for _, b := range c.Benchmarks {
		for _, l := range b.Loops {
			for u := 1; u <= MaxFactor; u++ {
				jobs = append(jobs, job{l, u})
			}
		}
	}
	sort.SliceStable(jobs, func(i, j int) bool {
		return jobs[i].u*len(jobs[i].l.Body) > jobs[j].u*len(jobs[j].l.Body)
	})
	dst := new(ir.Loop)
	for _, j := range jobs {
		checkAgainstRef(t, dst, j.l, j.u)
	}
	t.Logf("%d unrolls checked", len(jobs))
}

// segmentLoop builds an aliasing loop over a[] with one segment of
// accesses per entry of segs: a segment loads a[i+off] for each of its
// offsets and ends in a store to b[i+s] (with stores set, it stores to
// a[i+off] instead and ends in a load of a[i+100+s]). The segment ends are
// barriers, so offsets repeat across segments and coalesce only within one.
func segmentLoop(segs [][]int, stores bool) *ir.Loop {
	l := ir.NewLoop("segments")
	one := l.NewConst("1")
	n := l.NewParam("n")
	iv := l.NewOp(ir.OpAdd, ir.Use(one))
	iv.Args = append(iv.Args, ir.Carried(iv, 1))
	mem := func(code ir.Opcode, off int, args ...ir.ArgRef) *ir.Op {
		op := l.NewOp(code, args...)
		op.Mem = &ir.MemRef{Array: "a", Stride: 1, Offset: off, Elem: ir.ElemF64}
		op.FP = code == ir.OpLoad
		return op
	}
	for s, seg := range segs {
		last := n
		for _, off := range seg {
			if stores {
				mem(ir.OpStore, off, ir.Use(n))
			} else {
				last = mem(ir.OpLoad, off)
			}
		}
		if stores {
			mem(ir.OpLoad, 100+s)
		} else {
			mem(ir.OpStore, s, ir.Use(last)).Mem.Array = "b"
		}
	}
	cmp := l.NewOp(ir.OpCmp, ir.Use(iv), ir.Use(n))
	l.NewOp(ir.OpBr, ir.Use(cmp))
	return l
}

// The fixtures cover what the corpus may leave out: copies reading the
// induction value as data (the only bodies reorder permutes), a coalescing
// group of more than 12 accesses with repeated offsets (pdqsort leaves
// insertion sort there, so equal offsets come out in an order a stable sort
// would not give: this one coalesces differently under a stable sort),
// store barriers with and without noalias, predicated and indirect
// accesses, and u = 1.
func TestUnrollIntoFixtures(t *testing.T) {
	segs := [][]int{{4}, {6, 4, 2, 3, 1}, {0, 3}, {6, 2, 5, 1, 4, 0}, {1, 5, 6, 3, 0, 2}}
	loops := []*ir.Loop{segmentLoop(segs, false), segmentLoop(segs, true)}
	for _, attrs := range []string{"", "noalias;"} {
		for _, body := range []string{
			"a[i] = i * 2; b[i] = a[i-1] + i;",
			"a[i] = b[i] + 1.0; b[i+1] = a[i+1] * 2.0; a[i+1] = b[i];",
			"if (a[i] > 0.0) { b[i] = a[i]; b[i+1] = a[i+1]; } a[i+1] = b[i] + a[i];",
			"a[i] = b[idx[i]] + b[i]; b[idx[i]] = a[i+1]; a[i+1] = b[i+1];",
			"s = s + a[i] * b[i]; call f(); b[i] = s;",
		} {
			src := fmt.Sprintf("kernel fx lang=c { double a[], b[]; int idx[]; double s; %s for i = 0 .. n { %s } }", attrs, body)
			loops = append(loops, lower(t, src))
		}
	}
	dst := new(ir.Loop)
	for _, l := range loops {
		for u := MaxFactor; u >= 1; u-- {
			checkAgainstRef(t, dst, l, u)
		}
	}
	// The induction-value fixture really is reordered.
	if _, err := UnrollInto(dst, loops[2], 4); err != nil {
		t.Fatal(err)
	}
	ascending := true
	for i := 1; i < len(dst.Body); i++ {
		ascending = ascending && dst.Body[i-1].ID < dst.Body[i].ID
	}
	if ascending {
		t.Errorf("induction-value reads left the body in creation order:\n%s", dst)
	}
}

// TestUnrolledArgListsAreExclusive appends to every op's argument list of
// an unrolled loop without storing the result: the lists are carved from
// one slab, so each must end at its own capacity and the append must leave
// every other op untouched.
func TestUnrolledArgListsAreExclusive(t *testing.T) {
	for _, src := range []string{daxpy, `kernel st lang=c { double a[], b[]; noalias; for i = 1 .. 511 { b[i] = a[i-1] + a[i] + a[i+1]; } }`} {
		l := lower(t, src)
		for u := 1; u <= MaxFactor; u++ {
			out, _, err := Unroll(l, u)
			if err != nil {
				t.Fatal(err)
			}
			before := dump(out)
			for _, op := range append(out.Params, out.Body...) {
				_ = append(op.Args, ir.Use(op))
			}
			if after := dump(out); after != before {
				t.Fatalf("%s u=%d: appending to one op's arguments changed another's\nbefore:\n%s\nafter:\n%s", l.Name, u, before, after)
			}
		}
	}
}

// TestUnrollIntoZeroAllocs pins a warm destination at no allocation beyond
// the returned Info, for daxpy (coalesced loads) and a stencil (coalesced
// loads and stores) at every factor.
func TestUnrollIntoZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled scratch")
	}
	stencil := `kernel st lang=c { double a[], b[]; noalias; for i = 1 .. 511 { b[i] = a[i-1] + a[i] + a[i+1]; } }`
	for _, src := range []string{daxpy, stencil} {
		l := lower(t, src)
		dst := new(ir.Loop)
		for u := MaxFactor; u >= 1; u-- {
			if _, err := UnrollInto(dst, l, u); err != nil {
				t.Fatal(err)
			}
		}
		for u := 1; u <= MaxFactor; u++ {
			allocs := testing.AllocsPerRun(50, func() {
				if _, err := UnrollInto(dst, l, u); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 1 {
				t.Errorf("%s u=%d: UnrollInto allocates %v per run, want only the Info", l.Name, u, allocs)
			}
		}
	}
}

// TestSortFuncMatchesSortSlice: coalesce sorts its groups with
// slices.SortFunc where refCoalesce uses sort.Slice. Both run the same
// pdqsort, so they must leave equal keys in the same order, also past the
// 12 elements insertion sort handles.
func TestSortFuncMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		keys := make([]int, rng.Intn(100))
		for i := range keys {
			keys[i] = rng.Intn(1 + len(keys)/4)
		}
		a, b := make([]int, len(keys)), make([]int, len(keys))
		for i := range a {
			a[i], b[i] = i, i
		}
		sort.Slice(a, func(i, j int) bool { return keys[a[i]] < keys[a[j]] })
		slices.SortFunc(b, func(x, y int) int { return cmp.Compare(keys[x], keys[y]) })
		if !slices.Equal(a, b) {
			t.Fatalf("keys %v: sort.Slice order %v, slices.SortFunc order %v", keys, a, b)
		}
	}
}
