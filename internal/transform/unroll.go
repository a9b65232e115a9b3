// Package transform implements loop unrolling on the IR, together with the
// post-unroll cleanups that give unrolling its payoff on real machines
// (paper Section 3): cross-iteration scalar replacement (store→load and
// load→load forwarding), adjacent-reference load/store coalescing (the
// wide-memory-bus effect), dead store elimination, and folding of the
// per-iteration loop overhead (induction update, trip test, back edge) into
// one instance per unrolled body.
package transform

import (
	"fmt"
	"strconv"

	"metaopt/internal/ir"
)

// Info reports what unrolling did to a loop.
type Info struct {
	U               int // the unroll factor
	ForwardedLoads  int // loads replaced by values from earlier copies
	CoalescedLoads  int // loads merged into a neighbor's wide access
	CoalescedStores int // stores merged into a neighbor's wide access
	DeadStores      int // stores overwritten within the unrolled body
	IV              *ir.Op
}

// MaxFactor is the largest unroll factor the system considers; beyond eight
// the paper's training loops stop compiling, and the label space is 1..8.
const MaxFactor = 8

// Unroll returns a new loop whose body executes u consecutive iterations of
// l, plus a description of the cleanup opportunities it found. Unroll(l, 1)
// returns a plain clone. The input loop is not modified.
func Unroll(l *ir.Loop, u int) (*ir.Loop, *Info, error) {
	if err := l.Validate(); err != nil {
		return nil, nil, fmt.Errorf("transform: input: %w", err)
	}
	return UnrollPrechecked(l, u)
}

// UnrollPrechecked is Unroll without the input validation pass, for
// callers that validate a loop once and then unroll it at many factors
// (the labeler compiles every loop at factors 1..MaxFactor). The output
// is still validated.
func UnrollPrechecked(l *ir.Loop, u int) (*ir.Loop, *Info, error) {
	out := new(ir.Loop)
	info, err := UnrollInto(out, l, u)
	if err != nil {
		return nil, nil, err
	}
	return out, info, nil
}

// UnrollInto is UnrollPrechecked writing the unrolled loop into dst, which
// it resets first and must not be l. A warm dst is rebuilt in place: apart
// from the returned Info the unroller then allocates nothing, so a caller
// that recycles dst (the labeler compiles every loop at every factor)
// keeps the compile path off the heap.
func UnrollInto(dst, l *ir.Loop, u int) (*Info, error) {
	if u < 1 {
		return nil, fmt.Errorf("transform: unroll factor %d", u)
	}
	iv, cmp, br, err := loopControl(l)
	if err != nil {
		return nil, err
	}
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	info := &Info{U: u}
	if u == 1 {
		l.CloneInto(dst)
		info.IV = findByID(dst, iv.ID)
		s.applyCleanups(dst, info)
		return info, nil
	}

	dst.Reset(l.Name)
	dst.Benchmark, dst.Lang, dst.NestLevel, dst.TripCount = l.Benchmark, l.Lang, l.NestLevel, l.TripCount
	dst.EarlyExit, dst.NoAlias, dst.RuntimeTrip, dst.Entries = l.EarlyExit, l.NoAlias, l.RuntimeTrip, l.Entries

	// The replicated portion of the body: everything except loop control.
	repl := s.repl[:0]
	maxPred := 0
	for _, op := range l.Body {
		if op == iv || op == cmp || op == br {
			continue
		}
		repl = append(repl, op)
		maxPred = max(maxPred, op.PredID)
	}
	s.repl = repl
	// Worst-case op count: u body copies, shared params, loop control and
	// up to u-1 materialized IV adds with their constants. One slab block.
	dst.Reserve(len(l.Params) + u*len(l.Body) + 2*u + 3)

	// ID-indexed tables: a source param's copy, copy k's clone of source
	// op ID at k*n+ID, and copy k's materialized induction value.
	n := l.MaxID()
	s.param, s.clone, s.ivValue = grow(s.param, n), grow(s.clone, u*n), grow(s.ivValue, u)

	// Shared pseudo-ops.
	for _, p := range l.Params {
		var np *ir.Op
		if p.Code == ir.OpParam {
			np = dst.NewParam(p.Name)
		} else {
			np = dst.NewConst(p.Name)
		}
		np.FP = p.FP
		s.param[p.ID] = np
	}

	// Pass 1: clone u copies without arguments.
	for k := 0; k < u; k++ {
		for _, op := range repl {
			nc := dst.NewOp(op.Code)
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
				nc.Mem = dst.NewMem(m)
			}
			s.clone[k*n+op.ID] = nc
		}
	}

	// New loop control: one induction update per unrolled body. Its
	// constant names the step for readability.
	step := dst.NewConst(strconv.Itoa(u))
	newIV := dst.NewOp(ir.OpAdd)
	newIV.Name = iv.Name
	newIV.Args = append(dst.NewArgs(2), ir.Use(step), ir.Carried(newIV, 1))
	info.IV = newIV

	// Pass 2: wire arguments.
	for k := 0; k < u; k++ {
		for _, op := range repl {
			nc := s.clone[k*n+op.ID]
			nc.Args = dst.NewArgs(len(op.Args))
			for _, a := range op.Args {
				nc.Args = append(nc.Args, s.remapArg(dst, a, k, u, n, iv, newIV))
			}
		}
	}

	// Loop control tail: compare and back edge.
	newCmp := dst.NewOp(ir.OpCmp)
	newCmp.Name = cmp.Name
	newCmp.Args = append(dst.NewArgs(len(cmp.Args)), ir.Use(newIV))
	for _, a := range cmp.Args {
		if a.Op == iv {
			continue // already wired to the new IV
		}
		newCmp.Args = append(newCmp.Args, s.remapArg(dst, a, u-1, u, n, iv, newIV))
	}
	newBr := dst.NewOp(ir.OpBr)
	newBr.Args = append(dst.NewArgs(1), ir.Use(newCmp))

	// Order the body so that every dist-0 use follows its definition: the
	// materialized IV adds were appended out of order.
	if err := s.reorder(dst); err != nil {
		return nil, err
	}

	s.applyCleanups(dst, info)
	if err := dst.Validate(); err != nil {
		return nil, fmt.Errorf("transform: unroll %s by %d: %w", l.Name, u, err)
	}
	return info, nil
}

// remapArg translates an argument of the source op into copy k's body (n
// is the source loop's MaxID).
func (s *scratch) remapArg(dst *ir.Loop, a ir.ArgRef, k, u, n int, iv, newIV *ir.Op) ir.ArgRef {
	if np := s.param[a.Op.ID]; np != nil {
		return ir.ArgRef{Op: np, Dist: 0}
	}
	if a.Op == iv {
		// Reading the induction value: copy k sees base+k, materialized
		// the first time a copy reads it as data.
		if k == 0 {
			return ir.Carried(newIV, 1)
		}
		if s.ivValue[k] == nil {
			c := dst.NewConst(strconv.Itoa(k))
			add := dst.NewOp(ir.OpAdd)
			add.Args = append(dst.NewArgs(2), ir.Carried(newIV, 1), ir.Use(c))
			add.Name = iv.Name + "+" + strconv.Itoa(k)
			s.ivValue[k] = add
		}
		return ir.Use(s.ivValue[k])
	}
	j := k - a.Dist
	if j >= 0 {
		return ir.Use(s.clone[j*n+a.Op.ID])
	}
	// Value from an earlier unrolled body: copy (j mod u), ceil(-j/u)
	// bodies back.
	dist := (-j + u - 1) / u
	src := ((j % u) + u) % u
	return ir.Carried(s.clone[src*n+a.Op.ID], dist)
}

// loopControl identifies the induction update, trip test and back edge.
func loopControl(l *ir.Loop) (iv, cmp, br *ir.Op, err error) {
	for _, op := range l.Body {
		if op.Code == ir.OpBr {
			br = op
		}
	}
	if br == nil || len(br.Args) != 1 {
		return nil, nil, nil, fmt.Errorf("transform: %s: no back-edge branch", l.Name)
	}
	cmp = br.Args[0].Op
	if cmp == nil || cmp.Code != ir.OpCmp {
		return nil, nil, nil, fmt.Errorf("transform: %s: back edge not fed by a compare", l.Name)
	}
	for _, a := range cmp.Args {
		if a.Op.Code == ir.OpAdd && selfCarried(a.Op) {
			iv = a.Op
		}
	}
	if iv == nil {
		return nil, nil, nil, fmt.Errorf("transform: %s: no induction update", l.Name)
	}
	return iv, cmp, br, nil
}

func selfCarried(op *ir.Op) bool {
	for _, a := range op.Args {
		if a.Op == op && a.Dist == 1 {
			return true
		}
	}
	return false
}

func findByID(l *ir.Loop, id int) *ir.Op {
	for _, op := range l.Body {
		if op.ID == id {
			return op
		}
	}
	return nil
}

// reorder topologically sorts the body by dist-0 argument edges, keeping
// the original relative order where possible (memory ordering must be
// preserved: it is encoded positionally). Kahn's algorithm places the ready
// op of smallest position first, so without a forward dist-0 edge the order
// is the identity: only bodies whose copies read the induction value as
// data (the materialized iv+k adds follow the clones) are reordered.
func (s *scratch) reorder(l *ir.Loop) error {
	n := len(l.Body)
	pos := s.positions(l)
	forward := false
	for i, op := range l.Body {
		for _, a := range op.Args {
			forward = forward || a.Dist == 0 && pos[a.Op.ID] >= int32(i)
		}
	}
	if !forward {
		return nil
	}
	indeg := make([]int, n)
	succs := make([][]int, n)
	for i, op := range l.Body {
		for _, a := range op.Args {
			if j := pos[a.Op.ID]; a.Dist == 0 && j >= 0 {
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
