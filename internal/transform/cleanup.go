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

	// The body's affine locations, numbered densely by number: loc by op
	// ID, arrays in order of first appearance, array a's locations in
	// [arrLocs[a], arrLocs[a+1]).
	loc     []int32
	refs    []locRef
	arrays  []string
	places  []stridedOffset // by location
	arrLocs []int32

	values  []ir.ArgRef // forwardLoads: the value at each location
	covered []*ir.Op    // deadStores: the store overwriting a location later

	keys   []groupKey // coalesce's groups in order of first appearance,
	groups [][]*ir.Op // each in body order
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

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
	s.number(l)
	s.forwardLoads(l, info)
	s.deadStores(l, info)
	s.coalesce(l, info, ir.OpLoad)
	s.coalesce(l, info, ir.OpStore)
}

// locRef is one affine access while number reads it: its array's index
// in scratch.arrays, its stride and offset, and its op's ID.
type locRef struct {
	array int
	at    stridedOffset
	opID  int
}

// stridedOffset is a location within one array.
type stridedOffset struct{ stride, offset int }

// number gives every distinct (array, stride, offset) of the body's affine
// loads and stores a dense location, s.loc[op.ID], with each array's
// locations consecutive. The passes index slices of the body's location
// count with it, so a clear costs this body's locations, and forgetting
// one array touches that array's alone. Forwarding and dead-store
// elimination drop ops but change no MemRef, so one numbering serves both.
//
// Each access is matched against its array's locations so far, which is
// quadratic in one array's accesses. Unrolled by 8, the largest body of
// the full-scale corpus (seeds 2005 and 101) has 120 affine accesses over
// 13 arrays, and no array has more than 40 accesses or 16 locations.
func (s *scratch) number(l *ir.Loop) {
	refs, arrays := s.refs[:0], s.arrays[:0]
	for _, op := range l.Body {
		if (op.Code != ir.OpLoad && op.Code != ir.OpStore) || op.Mem.Indirect {
			continue
		}
		a := slices.Index(arrays, op.Mem.Array)
		if a < 0 {
			a = len(arrays)
			arrays = append(arrays, op.Mem.Array)
		}
		refs = append(refs, locRef{a, stridedOffset{op.Mem.Stride, op.Mem.Offset}, op.ID})
	}
	loc := grow(s.loc, l.MaxID())
	arrLocs, places := s.arrLocs[:0], s.places[:0]
	for a := range arrays {
		first := len(places)
		arrLocs = append(arrLocs, int32(first))
		for _, r := range refs {
			if r.array != a {
				continue
			}
			i := slices.Index(places[first:], r.at)
			if i < 0 {
				i = len(places) - first
				places = append(places, r.at)
			}
			loc[r.opID] = int32(first + i)
		}
	}
	s.loc, s.refs, s.arrays, s.places = loc, refs, arrays, places
	s.arrLocs = append(arrLocs, int32(len(places)))
}

// locations returns the number of locations number found.
func (s *scratch) locations() int { return int(s.arrLocs[len(s.arrLocs)-1]) }

// forwardLoads replaces loads whose value is already available from an
// earlier unpredicated load of, or store to, the same location in the same
// unrolled body.
func (s *scratch) forwardLoads(l *ir.Loop, info *Info) {
	values := grow(s.values, s.locations()) // a nil Op: nothing known
	s.values = values
	killArray := func(array string) {
		if array == "" || !l.NoAlias {
			clear(values)
			return
		}
		if a := slices.Index(s.arrays, array); a >= 0 {
			clear(values[s.arrLocs[a]:s.arrLocs[a+1]])
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
			key := s.loc[op.ID]
			if v := values[key]; v.Op != nil {
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
				values[s.loc[op.ID]] = ir.ArgRef{}
				if !l.NoAlias {
					killArray("")
				}
				continue
			}
			if !l.NoAlias {
				killArray("")
			}
			values[s.loc[op.ID]] = op.Args[len(op.Args)-1]
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
	covered := grow(s.covered, s.locations())
	s.covered = covered
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
				covered[s.loc[op.ID]] = nil
			}
		case ir.OpStore:
			if op.Mem.Indirect {
				clear(covered)
				continue
			}
			key := s.loc[op.ID]
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
