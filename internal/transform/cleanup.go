package transform

import (
	"cmp"
	"slices"
	"sync"

	"metaopt/internal/ir"
)

// scratch is the unroller's working memory, pooled so that unrolling and
// cleaning a body allocates nothing once warm. Per-op tables are indexed
// by op ID (ir.Loop.MaxID bounds them) instead of keyed by *ir.Op.
type scratch struct {
	// The replicated source ops, a source param's copy by ID, copy k's
	// clone of source op ID at k*MaxID+ID, copy k's induction value.
	repl, param, clone, ivValue []*ir.Op

	pos []int32 // body position by op ID, -1 off the body

	// The ops a pass drops, by ID: a load maps to the value replacing it,
	// a store to the later store that supersedes it.
	removed []ir.ArgRef

	values  map[memLoc]ir.ArgRef // forwardLoads: the value at each location
	covered map[memLoc]*ir.Op    // deadStores: the store overwriting a location later

	keys   []groupKey // coalesce's groups in order of first appearance,
	groups [][]*ir.Op // each in body order
}

var scratchPool = sync.Pool{New: func() any {
	return &scratch{values: map[memLoc]ir.ArgRef{}, covered: map[memLoc]*ir.Op{}}
}}

// grow returns s with length n and every element zero, reusing its
// capacity when it suffices.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// positions fills s.pos with the body position of every op ID of l.
func (s *scratch) positions(l *ir.Loop) []int32 {
	pos := grow(s.pos, l.MaxID())
	for i := range pos {
		pos[i] = -1
	}
	for i, op := range l.Body {
		pos[op.ID] = int32(i)
	}
	s.pos = pos
	return pos
}

// applyCleanups runs the post-unroll optimizations in order: store→load and
// load→load forwarding (cross-iteration scalar replacement), dead store
// elimination, then load/store coalescing (the wide-memory-bus effect).
//
// Note on modeling: this IR drives a performance model, not an interpreter.
// Coalescing therefore redirects the dependence structure (consumers of a
// merged access depend on the surviving wide access) without representing
// the distinct element values — which is exactly what the schedulers and
// the cycle model need.
func (s *scratch) applyCleanups(l *ir.Loop, info *Info) {
	s.forwardLoads(l, info)
	s.deadStores(l, info)
	s.coalesce(l, info, ir.OpLoad)
	s.coalesce(l, info, ir.OpStore)
}

// memLoc identifies an affine memory location. Using it as a map key
// directly (instead of a formatted string) keeps the cleanup passes off
// the allocator: locKey was the single hottest call in the compile
// pipeline profile.
type memLoc struct {
	array  string
	stride int
	offset int
}

func locKey(m *ir.MemRef) memLoc {
	return memLoc{m.Array, m.Stride, m.Offset}
}

// forwardLoads replaces loads whose value is already available from an
// earlier unpredicated load of, or store to, the same location in the same
// unrolled body.
func (s *scratch) forwardLoads(l *ir.Loop, info *Info) {
	values := s.values
	clear(values)
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
	removed := grow(s.removed, l.MaxID())
	s.removed = removed
	n := 0
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
				removed[op.ID] = v
				n++
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
				// The store may not execute: the old value may survive.
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
	if n > 0 {
		s.rewrite(l)
	}
}

// rewrite redirects every use of the ops s.removed maps to their
// replacement values (composing carried distances) and drops them from the
// body.
func (s *scratch) rewrite(l *ir.Loop) {
	removed := s.removed
	for _, op := range l.Body {
		for i, a := range op.Args {
			// Replacements may chain (a forwarded load replaced by another
			// load that is itself forwarded); resolve transitively.
			for r := removed[a.Op.ID]; r.Op != nil; r = removed[a.Op.ID] {
				a = ir.ArgRef{Op: r.Op, Dist: a.Dist + r.Dist}
			}
			op.Args[i] = a
		}
	}
	keep := l.Body[:0]
	for _, op := range l.Body {
		if removed[op.ID].Op == nil {
			keep = append(keep, op)
		}
	}
	l.Body = keep
}

// deadStores removes stores overwritten by a later unconditional store to
// the same location with no intervening read, exit or call that could
// observe the earlier value.
func (s *scratch) deadStores(l *ir.Loop, info *Info) {
	removed := grow(s.removed, l.MaxID())
	s.removed = removed
	n := 0
	// Backward scan: "covered" locations will be overwritten before any
	// observation point.
	covered := s.covered
	clear(covered)
	for i := len(l.Body) - 1; i >= 0; i-- {
		op := l.Body[i]
		switch op.Code {
		case ir.OpCall, ir.OpCondBr:
			// Memory is observable here.
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
			if later := covered[key]; later != nil && !op.Predicated {
				removed[op.ID] = ir.Use(later)
				n++
				info.DeadStores++
				continue
			}
			if !op.Predicated {
				covered[key] = op
			}
		}
	}
	if n > 0 {
		s.rewrite(l)
	}
}

// groupKey identifies the accesses coalesce may pair.
type groupKey struct {
	array  string
	stride int
	bytes  int
	float  bool
}

// coalesce merges pairs of unpredicated affine accesses to adjacent
// elements of the same array into one wide access, provided no store or
// call intervenes between the pair. Each access joins at most one pair.
//
// Groups are visited in order of first appearance. Any order gives the same
// result: groups partition the candidates, and a pair's barrier scan reads
// only opcodes, arrays and Indirect, which coalescing never changes. Each
// group is built in body order and sorted by the same pdqsort the sort
// package runs, so equal offsets keep one fixed order.
func (s *scratch) coalesce(l *ir.Loop, info *Info, code ir.Opcode) {
	pos := s.positions(l)
	keys, groups := s.keys[:0], s.groups
	for _, op := range l.Body {
		if op.Code != code || op.Predicated || op.Mem.Indirect {
			continue
		}
		k := groupKey{op.Mem.Array, op.Mem.Stride, op.Mem.Elem.Bytes, op.Mem.Elem.Float}
		g := slices.Index(keys, k)
		if g < 0 {
			g = len(keys)
			keys = append(keys, k)
			if g == len(groups) {
				groups = append(groups, nil)
			}
			groups[g] = groups[g][:0]
		}
		groups[g] = append(groups[g], op)
	}
	s.keys, s.groups = keys, groups

	// Barrier positions between a candidate pair: calls always; stores that
	// may touch the array; and — when merging stores, since the earlier
	// store is delayed to the later one's position — loads that may read
	// the array and side exits that would observe the missing store.
	barrier := func(a, b int32, array string) bool {
		lo, hi := min(a, b), max(a, b)
		for _, op := range l.Body[lo+1 : hi] {
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

	removed := grow(s.removed, l.MaxID())
	s.removed = removed
	n := 0
	for g, key := range keys {
		ops := groups[g]
		slices.SortFunc(ops, func(a, b *ir.Op) int { return cmp.Compare(a.Mem.Offset, b.Mem.Offset) })
		for i := 0; i+1 < len(ops); i++ {
			a, b := ops[i], ops[i+1]
			if removed[a.ID].Op != nil || removed[b.ID].Op != nil {
				continue
			}
			if b.Mem.Offset != a.Mem.Offset+1 {
				continue
			}
			if barrier(pos[a.ID], pos[b.ID], key.array) {
				continue
			}
			first, second := a, b
			if pos[b.ID] < pos[a.ID] {
				first, second = b, a
			}
			lowOff := a.Mem.Offset // a has the smaller offset after sorting
			if code == ir.OpLoad {
				// Keep the earlier load: the wide access satisfies both.
				removed[second.ID] = ir.Use(first)
				first.Mem.Offset = lowOff
				first.Mem.Span = 2
				info.CoalescedLoads++
			} else {
				// Keep the later store so both values are defined by the
				// time the wide store issues; it adopts the earlier
				// store's inputs.
				merged := append(l.NewArgs(len(second.Args)+len(first.Args)), second.Args...)
				second.Args = append(merged, first.Args...)
				second.Mem.Offset = lowOff
				second.Mem.Span = 2
				removed[first.ID] = ir.Use(second)
				info.CoalescedStores++
			}
			n++
			i++ // the pair is consumed
		}
	}
	if n > 0 {
		s.rewrite(l)
	}
}
