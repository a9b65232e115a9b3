package ir

import "strconv"

// ArgRef is a use of a value defined by another operation. Dist is the
// iteration distance: 0 means the value produced in the same iteration,
// k > 0 means the value produced k iterations earlier (a loop-carried
// dependence, e.g. a reduction or a recurrence through an array).
type ArgRef struct {
	Op   *Op
	Dist int
}

// ElemKind describes the element type of a memory reference.
type ElemKind struct {
	Float bool // floating-point element
	Bytes int  // element size in bytes (4 or 8)
}

// Common element kinds.
var (
	ElemF64 = ElemKind{Float: true, Bytes: 8}
	ElemF32 = ElemKind{Float: true, Bytes: 4}
	ElemI64 = ElemKind{Float: false, Bytes: 8}
	ElemI32 = ElemKind{Float: false, Bytes: 4}
)

// MemRef describes the address computed by a load or store. Addresses are
// affine in the innermost induction variable: element index = Stride*i +
// Offset into Array. Indirect references (a[b[i]]) set Indirect, in which
// case Stride/Offset describe the index array access pattern but the actual
// address is unknown to the compiler.
type MemRef struct {
	Array    string
	Stride   int // elements advanced per source iteration
	Offset   int // constant element offset
	Indirect bool
	Elem     ElemKind

	// Span is the number of consecutive elements the access covers,
	// starting at Offset. Zero means one. Coalesced wide accesses set it
	// so dependence analysis still sees every element they touch.
	Span int
}

// SpanElems returns the number of elements covered (at least 1).
func (m *MemRef) SpanElems() int {
	if m.Span < 1 {
		return 1
	}
	return m.Span
}

// String renders the reference like "a[2i+1]".
func (m *MemRef) String() string { return string(m.appendText(nil)) }

func (m *MemRef) appendText(b []byte) []byte {
	b = append(b, m.Array...)
	b = append(b, '[')
	if m.Indirect {
		b = append(b, "ind:"...)
	}
	switch m.Stride {
	case 0:
	case 1:
		b = append(b, 'i')
	default:
		b = strconv.AppendInt(b, int64(m.Stride), 10)
		b = append(b, 'i')
	}
	if m.Offset != 0 || m.Stride == 0 {
		if m.Offset >= 0 && m.Stride != 0 {
			b = append(b, '+')
		}
		b = strconv.AppendInt(b, int64(m.Offset), 10)
	}
	return append(b, ']')
}

// Op is a single operation in a loop body. Operations form a DAG through
// Args; loop-carried edges (Dist > 0) may create cycles in the underlying
// dependence graph, which is exactly what the recurrence analysis needs.
type Op struct {
	ID   int
	Code Opcode
	Args []ArgRef

	// Mem is set for OpLoad and OpStore.
	Mem *MemRef

	// FP marks operations whose result lives in the floating-point
	// register file. The frontend sets it from declared types; it drives
	// register-pressure accounting per register file.
	FP bool

	// Predicated marks operations guarded by an if-converted condition.
	// Predicated operations still occupy issue slots but their guarding
	// compare contributes a unique predicate (a paper feature).
	Predicated bool

	// PredID identifies which predicate guards the op (0 = unpredicated).
	// Distinct IDs count as distinct predicates in the feature vector.
	PredID int

	// Name optionally carries a source-level name for debugging.
	Name string
}

// IsFloat reports whether the op runs on the FP side.
func (o *Op) IsFloat() bool { return o.Code.IsFloat() }

// String renders the op for debugging, e.g. "v3 = fadd v1 v2@1".
func (o *Op) String() string { return string(o.appendText(nil)) }

func (o *Op) appendText(b []byte) []byte {
	if o.Code.HasResult() {
		b = strconv.AppendInt(append(b, 'v'), int64(o.ID), 10)
		b = append(b, " = "...)
	}
	b = append(b, o.Code.String()...)
	if o.Mem != nil {
		b = append(b, ' ')
		b = o.Mem.appendText(b)
	}
	for _, a := range o.Args {
		b = append(b, ' ')
		b = strconv.AppendInt(append(b, 'v'), int64(a.Op.ID), 10)
		if a.Dist > 0 {
			b = append(b, '@')
			b = strconv.AppendInt(b, int64(a.Dist), 10)
		}
	}
	if o.Predicated {
		b = append(b, " (p"...)
		b = strconv.AppendInt(b, int64(o.PredID), 10)
		b = append(b, ')')
	}
	return b
}
