package ir

import (
	"fmt"
	"strconv"
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

	// slab backs Op allocation: ops are handed out from one contiguous
	// block instead of individual heap objects. When a block fills, a new
	// one is started — previously handed-out ops keep their addresses.
	slab []Op
}

// NewLoop returns an empty loop with the given name.
func NewLoop(name string) *Loop {
	return &Loop{Name: name, NestLevel: 1, TripCount: -1, RuntimeTrip: 1, Entries: 1}
}

// alloc hands out one Op from the slab, starting a fresh block when the
// current one is full (never reallocating in place: existing *Op pointers
// into a full block must stay valid).
func (l *Loop) alloc() *Op {
	if len(l.slab) == cap(l.slab) {
		n := 2 * cap(l.slab)
		if n < 16 {
			n = 16
		}
		l.slab = make([]Op, 0, n)
	}
	l.slab = l.slab[:len(l.slab)+1]
	return &l.slab[len(l.slab)-1]
}

// Reserve pre-sizes the op slab for about n upcoming New* calls, so a
// builder that knows the final size (e.g. unrolling) allocates one block.
func (l *Loop) Reserve(n int) {
	if free := cap(l.slab) - len(l.slab); free >= n {
		return
	}
	l.slab = make([]Op, 0, n)
}

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
// operation that belongs to this loop, pseudo-ops never appear in the body,
// distances are non-negative, memory ops carry memory references, and
// intra-iteration dependences respect program order (no forward references
// at distance 0, which would be a use before a def).
func (l *Loop) Validate() error {
	index := make(map[*Op]int, len(l.Body))
	for i, op := range l.Body {
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
		index[op] = i
	}
	params := make(map[*Op]bool, len(l.Params))
	for _, p := range l.Params {
		if !p.Code.IsPseudo() {
			return fmt.Errorf("ir: loop %s: non-pseudo op %s in params", l.Name, p)
		}
		params[p] = true
	}
	for i, op := range l.Body {
		for _, a := range op.Args {
			if a.Dist < 0 {
				return fmt.Errorf("ir: loop %s: negative dependence distance on %s", l.Name, op)
			}
			if params[a.Op] {
				if a.Dist != 0 {
					return fmt.Errorf("ir: loop %s: carried dependence on invariant %s", l.Name, a.Op.Name)
				}
				continue
			}
			j, ok := index[a.Op]
			if !ok {
				return fmt.Errorf("ir: loop %s: op %s uses value from another loop", l.Name, op)
			}
			if !a.Op.Code.HasResult() {
				return fmt.Errorf("ir: loop %s: op %s uses resultless op v%d", l.Name, op, a.Op.ID)
			}
			if a.Dist == 0 && j >= i {
				return fmt.Errorf("ir: loop %s: op %s uses v%d before its definition", l.Name, op, a.Op.ID)
			}
		}
	}
	return nil
}

// Clone returns a deep copy of the loop. Cloned ops get fresh identities but
// preserve IDs, so dependences stay aligned.
func (l *Loop) Clone() *Loop {
	c := &Loop{
		Name:        l.Name,
		Benchmark:   l.Benchmark,
		Lang:        l.Lang,
		NestLevel:   l.NestLevel,
		TripCount:   l.TripCount,
		EarlyExit:   l.EarlyExit,
		NoAlias:     l.NoAlias,
		RuntimeTrip: l.RuntimeTrip,
		Entries:     l.Entries,
		nextID:      l.nextID,
	}
	c.Reserve(len(l.Body) + len(l.Params))
	remap := make(map[*Op]*Op, len(l.Body)+len(l.Params))
	cloneOp := func(op *Op) *Op {
		n := c.alloc()
		n.ID, n.Code, n.FP, n.Predicated, n.PredID, n.Name = op.ID, op.Code, op.FP, op.Predicated, op.PredID, op.Name
		if op.Mem != nil {
			m := *op.Mem
			n.Mem = &m
		}
		remap[op] = n
		return n
	}
	for _, p := range l.Params {
		c.Params = append(c.Params, cloneOp(p))
	}
	for _, op := range l.Body {
		c.Body = append(c.Body, cloneOp(op))
	}
	for i, op := range l.Body {
		for _, a := range op.Args {
			c.Body[i].Args = append(c.Body[i].Args, ArgRef{Op: remap[a.Op], Dist: a.Dist})
		}
	}
	return c
}

// String renders the loop. serve keys its prediction cache on the
// rendering, so every header property the feature extractor reads, such
// as noalias, must appear in it.
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
