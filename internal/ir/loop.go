package ir

import (
	"cmp"
	"fmt"
	"strconv"
	"sync"
)

// Loop is a single innermost loop: the unit the system instruments, unrolls
// and classifies. Body holds the operations in original program order;
// Params holds loop-invariant live-in values (never scheduled).
type Loop struct {
	// Identity.
	Name      string // unique within a benchmark, e.g. "daxpy.L1"
	Benchmark string // owning benchmark, e.g. "171.swim"

	// Source-level properties.
	Lang      Lang
	NestLevel int  // nesting depth of this loop (1 = not nested)
	TripCount int  // compile-time trip count; -1 if unknown to the compiler
	EarlyExit bool // body contains a data-dependent exit branch
	NoAlias   bool // arrays are known distinct (Fortran semantics / restrict)

	// Runtime behaviour used by the simulator, invisible to the compiler
	// analyses and the feature extractor except through TripCount.
	RuntimeTrip int   // iterations actually executed per entry
	Entries     int64 // times the loop is entered per program run

	Body   []*Op
	Params []*Op

	nextID int

	// The slabs back Op, MemRef and argument-list allocation: pieces of
	// one block instead of individual heap objects. When a block fills, a
	// new one is started — pieces handed out keep their addresses. Reset
	// keeps the current blocks, so a reused loop rebuilds in place.
	slab []Op
	mems []MemRef
	args []ArgRef
}

// NewLoop returns an empty loop with the given name.
func NewLoop(name string) *Loop {
	l := new(Loop)
	l.Reset(name)
	return l
}

// Reset empties the loop, as NewLoop(name) returns it, but keeps the
// capacity of Body, Params and the op, MemRef and argument slabs. Ops and
// MemRefs handed out before the call are reused by the next ones: nothing
// may keep a pointer into the loop across a Reset.
func (l *Loop) Reset(name string) {
	*l = Loop{Name: name, NestLevel: 1, TripCount: -1, RuntimeTrip: 1, Entries: 1,
		Body: l.Body[:0], Params: l.Params[:0],
		slab: l.slab[:0], mems: l.mems[:0], args: l.args[:0]}
}

// carve hands out n zeroed elements of *slab, capacity-limited to n,
// starting a block of at least twice the current one's capacity when it
// lacks room (never reallocating in place: pieces already handed out must
// stay valid).
func carve[T any](slab *[]T, n int) []T {
	s := *slab
	if cap(s)-len(s) < n {
		c := max(2*cap(s), 16, n)
		s = make([]T, 0, c)
	}
	i := len(s)
	s = s[:i+n]
	clear(s[i:])
	*slab = s
	return s[i : i+n : i+n]
}

// alloc hands out one zeroed Op from the slab.
func (l *Loop) alloc() *Op { return &carve(&l.slab, 1)[0] }

// Reserve pre-sizes the op slab for about n upcoming New* calls, so a
// builder that knows the final size (e.g. unrolling) allocates one block.
func (l *Loop) Reserve(n int) {
	if free := cap(l.slab) - len(l.slab); free >= n {
		return
	}
	l.slab = make([]Op, 0, n)
}

// NewMem returns a copy of m stored in the loop's MemRef slab.
func (l *Loop) NewMem(m MemRef) *MemRef {
	p := &carve(&l.mems, 1)[0]
	*p = m
	return p
}

// NewArgs returns an empty argument list with room for n arguments,
// carved from the loop's argument slab. Its capacity is exactly n, so
// appending past n reallocates instead of overwriting the next op's
// arguments.
func (l *Loop) NewArgs(n int) []ArgRef { return carve(&l.args, n)[:0] }

// MaxID returns an exclusive upper bound on the op IDs in this loop, so
// analyses can use ID-indexed slices instead of pointer-keyed maps.
func (l *Loop) MaxID() int { return l.nextID }

// NewOp appends a fresh operation with the given opcode to the loop body and
// returns it.
func (l *Loop) NewOp(code Opcode, args ...ArgRef) *Op {
	op := l.alloc()
	op.ID, op.Code, op.Args = l.nextID, code, args
	l.nextID++
	l.Body = append(l.Body, op)
	return op
}

// NewParam appends a loop-invariant live-in value and returns it.
func (l *Loop) NewParam(name string) *Op {
	op := l.alloc()
	op.ID, op.Code, op.Name = l.nextID, OpParam, name
	l.nextID++
	l.Params = append(l.Params, op)
	return op
}

// NewConst appends a constant pseudo-op and returns it. Constants live with
// the parameters: they are materialized outside the loop.
func (l *Loop) NewConst(name string) *Op {
	op := l.alloc()
	op.ID, op.Code, op.Name = l.nextID, OpConst, name
	l.nextID++
	l.Params = append(l.Params, op)
	return op
}

// Use is shorthand for an intra-iteration argument reference.
func Use(op *Op) ArgRef { return ArgRef{Op: op} }

// Carried is shorthand for a loop-carried argument reference at the given
// iteration distance.
func Carried(op *Op, dist int) ArgRef { return ArgRef{Op: op, Dist: dist} }

// NumOps returns the number of real (non-pseudo) operations in the body.
func (l *Loop) NumOps() int { return len(l.Body) }

// Count returns how many body operations satisfy pred.
func (l *Loop) Count(pred func(*Op) bool) int {
	n := 0
	for _, op := range l.Body {
		if pred(op) {
			n++
		}
	}
	return n
}

// Validate checks structural invariants: every argument refers to an
// operation that belongs to this loop, op IDs are distinct and in
// [0, MaxID) (analyses index tables by them), pseudo-ops never appear in
// the body, distances are non-negative, memory ops carry memory
// references, and intra-iteration dependences respect program order (no
// forward references at distance 0, which would be a use before a def).
// It does not modify the loop: its scratch comes from a pool, so loops
// shared across goroutines validate concurrently.
func (l *Loop) Validate() error {
	for _, op := range l.Body {
		if op.Code.IsPseudo() {
			return fmt.Errorf("ir: loop %s: pseudo op %s in body", l.Name, op)
		}
		if !op.Code.Valid() {
			return fmt.Errorf("ir: loop %s: invalid opcode on op v%d", l.Name, op.ID)
		}
		if op.Code.IsMem() && op.Mem == nil {
			return fmt.Errorf("ir: loop %s: memory op %s without MemRef", l.Name, op)
		}
		if !op.Code.IsMem() && op.Mem != nil {
			return fmt.Errorf("ir: loop %s: non-memory op %s with MemRef", l.Name, op)
		}
	}
	for _, p := range l.Params {
		if !p.Code.IsPseudo() {
			return fmt.Errorf("ir: loop %s: non-pseudo op %s in params", l.Name, p)
		}
	}
	t, bad := l.index()
	defer indexPool.Put(t)
	if bad != nil {
		return fmt.Errorf("ir: loop %s: op %s has an ID outside [0, %d) or shared", l.Name, bad, l.nextID)
	}
	for i, op := range l.Body {
		for _, a := range op.Args {
			if a.Dist < 0 {
				return fmt.Errorf("ir: loop %s: negative dependence distance on %s", l.Name, op)
			}
			k := t.find(l, a.Op)
			if k < 0 {
				if a.Dist != 0 {
					return fmt.Errorf("ir: loop %s: carried dependence on invariant %s", l.Name, a.Op.Name)
				}
				continue
			}
			if k == 0 {
				return fmt.Errorf("ir: loop %s: op %s uses value from another loop", l.Name, op)
			}
			if !a.Op.Code.HasResult() {
				return fmt.Errorf("ir: loop %s: op %s uses resultless op v%d", l.Name, op, a.Op.ID)
			}
			if a.Dist == 0 && int(k-1) >= i {
				return fmt.Errorf("ir: loop %s: op %s uses v%d before its definition", l.Name, op, a.Op.ID)
			}
		}
	}
	return nil
}

// idIndex locates a loop's ops by ID: 0 where no op holds the ID, i+1 for
// body position i, -(j+1) for param j.
type idIndex []int32

var indexPool = sync.Pool{New: func() any { return new(idIndex) }}

// index returns the pooled ID index of l (return it to indexPool) and the
// first op whose ID is out of range or already taken, which it leaves out.
func (l *Loop) index() (t *idIndex, bad *Op) {
	t = indexPool.Get().(*idIndex)
	if cap(*t) < l.nextID {
		*t = make(idIndex, l.nextID)
	}
	*t = (*t)[:l.nextID]
	clear(*t)
	set := func(op *Op, k int32) {
		if op.ID < 0 || op.ID >= len(*t) || (*t)[op.ID] != 0 {
			bad = cmp.Or(bad, op)
			return
		}
		(*t)[op.ID] = k
	}
	for i, op := range l.Body {
		set(op, int32(i+1))
	}
	for j, p := range l.Params {
		set(p, -int32(j+1))
	}
	return t, bad
}

// find returns op's entry in t, or 0 when op is not one of l's ops.
func (t idIndex) find(l *Loop, op *Op) int32 {
	if op.ID < 0 || op.ID >= len(t) {
		return 0
	}
	switch k := t[op.ID]; {
	case k > 0 && l.Body[k-1] == op, k < 0 && l.Params[-k-1] == op:
		return k
	}
	return 0
}

// Clone returns a deep copy of the loop. Cloned ops get fresh identities but
// preserve IDs, so dependences stay aligned.
func (l *Loop) Clone() *Loop { return l.CloneInto(new(Loop)) }

// CloneInto resets dst (which must not be l) to a deep copy of l, as Clone
// returns it, reusing dst's slabs, and returns dst.
func (l *Loop) CloneInto(dst *Loop) *Loop {
	dst.Reset(l.Name)
	dst.Benchmark, dst.Lang, dst.NestLevel, dst.TripCount = l.Benchmark, l.Lang, l.NestLevel, l.TripCount
	dst.EarlyExit, dst.NoAlias, dst.RuntimeTrip, dst.Entries = l.EarlyExit, l.NoAlias, l.RuntimeTrip, l.Entries
	dst.nextID = l.nextID
	dst.Reserve(len(l.Body) + len(l.Params))
	cloneOp := func(op *Op) *Op {
		n := dst.alloc()
		n.ID, n.Code, n.FP, n.Predicated, n.PredID, n.Name = op.ID, op.Code, op.FP, op.Predicated, op.PredID, op.Name
		if op.Mem != nil {
			n.Mem = dst.NewMem(*op.Mem)
		}
		return n
	}
	for _, p := range l.Params {
		dst.Params = append(dst.Params, cloneOp(p))
	}
	for _, op := range l.Body {
		dst.Body = append(dst.Body, cloneOp(op))
	}
	t, _ := l.index()
	defer indexPool.Put(t)
	for i, op := range l.Body {
		n := dst.Body[i]
		n.Args = dst.NewArgs(len(op.Args))
		for _, a := range op.Args {
			var c *Op // a foreign argument clones to nil
			switch k := t.find(l, a.Op); {
			case k > 0:
				c = dst.Body[k-1]
			case k < 0:
				c = dst.Params[-k-1]
			}
			n.Args = append(n.Args, ArgRef{Op: c, Dist: a.Dist})
		}
	}
	return dst
}

// String renders the loop, with every header property the feature
// extractor reads, such as noalias. Loops that print alike extract equal
// features; serve's cache, keyed on a source's token stream, relies on
// that through the frontend (see TestCacheKeyPrintImpliesFeatures).
func (l *Loop) String() string { return string(l.AppendText(nil)) }

// AppendText appends the rendering String returns to b and returns the
// extended slice; with enough capacity in b it does not allocate.
func (l *Loop) AppendText(b []byte) []byte {
	b = append(b, "loop "...)
	b = append(b, l.Name...)
	b = append(b, " ("...)
	b = append(b, l.Lang.String()...)
	b = append(b, ", nest "...)
	b = strconv.AppendInt(b, int64(l.NestLevel), 10)
	b = append(b, ", trip "...)
	b = strconv.AppendInt(b, int64(l.TripCount), 10)
	if l.EarlyExit {
		b = append(b, ", early-exit"...)
	}
	if l.NoAlias {
		b = append(b, ", noalias"...)
	}
	b = append(b, ") {\n"...)
	for _, p := range l.Params {
		b = append(b, "  "...)
		b = strconv.AppendInt(append(b, 'v'), int64(p.ID), 10)
		b = append(b, " = "...)
		b = append(b, p.Code.String()...)
		b = append(b, ' ')
		b = append(b, p.Name...)
		b = append(b, '\n')
	}
	for _, op := range l.Body {
		b = append(b, "  "...)
		b = op.appendText(b)
		b = append(b, '\n')
	}
	return append(b, "}\n"...)
}
