package ir

import (
	"strings"
	"testing"
)

// buildDaxpy constructs y[i] = y[i] + a*x[i] by hand.
func buildDaxpy() *Loop {
	l := NewLoop("daxpy.L1")
	a := l.NewParam("a")
	lx := l.NewOp(OpLoad)
	lx.Mem = &MemRef{Array: "x", Stride: 1, Elem: ElemF64}
	ly := l.NewOp(OpLoad)
	ly.Mem = &MemRef{Array: "y", Stride: 1, Elem: ElemF64}
	mul := l.NewOp(OpFMul, Use(a), Use(lx))
	add := l.NewOp(OpFAdd, Use(ly), Use(mul))
	st := l.NewOp(OpStore, Use(add))
	st.Mem = &MemRef{Array: "y", Stride: 1, Elem: ElemF64}
	l.NewOp(OpBr)
	return l
}

func TestOpcodeProperties(t *testing.T) {
	if !OpFAdd.IsFloat() || OpAdd.IsFloat() {
		t.Error("IsFloat misclassifies fadd/add")
	}
	if !OpLoad.IsMem() || !OpStore.IsMem() || OpAdd.IsMem() {
		t.Error("IsMem misclassifies")
	}
	if !OpBr.IsBranch() || !OpCall.IsBranch() || OpAdd.IsBranch() {
		t.Error("IsBranch misclassifies")
	}
	if !OpParam.IsPseudo() || OpLoad.IsPseudo() {
		t.Error("IsPseudo misclassifies")
	}
	if OpStore.HasResult() || OpBr.HasResult() || !OpLoad.HasResult() {
		t.Error("HasResult misclassifies")
	}
	if OpInvalid.Valid() || !OpFMA.Valid() {
		t.Error("Valid misclassifies")
	}
	if OpFMA.String() != "fma" {
		t.Errorf("String = %q", OpFMA.String())
	}
	if Opcode(999).String() != "opcode?" {
		t.Errorf("out-of-range String = %q", Opcode(999).String())
	}
}

func TestLangString(t *testing.T) {
	if LangC.String() != "C" || LangFortran.String() != "Fortran" || LangFortran90.String() != "Fortran90" {
		t.Error("Lang.String wrong")
	}
	if Lang(9).String() != "lang?" {
		t.Error("out-of-range Lang.String wrong")
	}
}

func TestValidateOK(t *testing.T) {
	l := buildDaxpy()
	if err := l.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if l.NumOps() != 6 {
		t.Errorf("NumOps = %d, want 6", l.NumOps())
	}
	got := l.Count(func(o *Op) bool { return o.Code.IsMem() })
	if got != 3 {
		t.Errorf("memory ops = %d, want 3", got)
	}
}

func TestValidateRejectsUseBeforeDef(t *testing.T) {
	l := NewLoop("bad")
	add := l.NewOp(OpAdd)
	b := l.NewOp(OpAdd)
	add.Args = []ArgRef{Use(b)} // forward reference at distance 0
	if err := l.Validate(); err == nil {
		t.Error("expected use-before-def error")
	}
}

func TestValidateAllowsRecurrence(t *testing.T) {
	l := NewLoop("reduce")
	x := l.NewParam("x")
	add := l.NewOp(OpFAdd, Use(x))
	add.Args = append(add.Args, Carried(add, 1)) // s = s + x: self at distance 1
	l.NewOp(OpBr)
	if err := l.Validate(); err != nil {
		t.Errorf("recurrence should validate: %v", err)
	}
}

func TestValidateRejectsNegativeDist(t *testing.T) {
	l := NewLoop("bad")
	a := l.NewOp(OpAdd)
	l.NewOp(OpAdd, ArgRef{Op: a, Dist: -1})
	if err := l.Validate(); err == nil {
		t.Error("expected negative-distance error")
	}
}

func TestValidateRejectsMemlessLoad(t *testing.T) {
	l := NewLoop("bad")
	l.NewOp(OpLoad)
	if err := l.Validate(); err == nil {
		t.Error("expected missing-MemRef error")
	}
}

func TestValidateRejectsCarriedParam(t *testing.T) {
	l := NewLoop("bad")
	p := l.NewParam("a")
	l.NewOp(OpAdd, Carried(p, 1))
	if err := l.Validate(); err == nil {
		t.Error("expected carried-invariant error")
	}
}

func TestValidateRejectsForeignOp(t *testing.T) {
	l1 := buildDaxpy()
	l2 := NewLoop("bad")
	l2.NewOp(OpAdd, Use(l1.Body[0]))
	if err := l2.Validate(); err == nil {
		t.Error("expected foreign-op error")
	}
}

func TestValidateRejectsUseOfResultless(t *testing.T) {
	l := NewLoop("bad")
	st := l.NewOp(OpStore)
	st.Mem = &MemRef{Array: "a", Stride: 1, Elem: ElemF64}
	l.NewOp(OpAdd, Use(st))
	if err := l.Validate(); err == nil {
		t.Error("expected resultless-use error")
	}
}

func TestCloneIsDeep(t *testing.T) {
	l := buildDaxpy()
	c := l.Clone()
	if err := c.Validate(); err != nil {
		t.Fatalf("clone Validate: %v", err)
	}
	if len(c.Body) != len(l.Body) || len(c.Params) != len(l.Params) {
		t.Fatal("clone sizes differ")
	}
	// Mutating the clone must not affect the original.
	c.Body[0].Mem.Array = "zzz"
	if l.Body[0].Mem.Array == "zzz" {
		t.Error("clone shares MemRef storage")
	}
	c.Body[2].Args[0].Dist = 5
	if l.Body[2].Args[0].Dist == 5 {
		t.Error("clone shares Args storage")
	}
	// Clone args must point at clone ops.
	for _, op := range c.Body {
		for _, a := range op.Args {
			found := false
			for _, o := range c.Body {
				if a.Op == o {
					found = true
				}
			}
			for _, o := range c.Params {
				if a.Op == o {
					found = true
				}
			}
			if !found {
				t.Fatalf("clone op %s references non-clone op", op)
			}
		}
	}
}

func TestMemRefString(t *testing.T) {
	cases := []struct {
		m    MemRef
		want string
	}{
		{MemRef{Array: "a", Stride: 1}, "a[i]"},
		{MemRef{Array: "a", Stride: 1, Offset: 1}, "a[i+1]"},
		{MemRef{Array: "a", Stride: 2, Offset: -1}, "a[2i-1]"},
		{MemRef{Array: "a", Stride: 0, Offset: 3}, "a[3]"},
		{MemRef{Array: "a", Stride: 1, Indirect: true}, "a[ind:i]"},
	}
	for _, c := range cases {
		if got := c.m.String(); got != c.want {
			t.Errorf("MemRef.String = %q, want %q", got, c.want)
		}
	}
}

func TestLoopString(t *testing.T) {
	s := buildDaxpy().String()
	for _, want := range []string{"loop daxpy.L1", "fmul", "fadd", "store y[i]", "param a"} {
		if !strings.Contains(s, want) {
			t.Errorf("Loop.String missing %q in:\n%s", want, s)
		}
	}
}

func TestOpString(t *testing.T) {
	l := NewLoop("t")
	a := l.NewOp(OpAdd)
	b := l.NewOp(OpAdd, Use(a), Carried(a, 2))
	b.Predicated = true
	b.PredID = 1
	s := b.String()
	for _, want := range []string{"v1 = add", "v0", "@2", "(p1)"} {
		if !strings.Contains(s, want) {
			t.Errorf("Op.String = %q missing %q", s, want)
		}
	}
}

// TestValidateRejectsBadIDs: analyses index tables by op ID, so an ID
// outside [0, MaxID) would make them index out of range and two ops sharing
// an ID would have their data edges wired to the wrong op.
func TestValidateRejectsBadIDs(t *testing.T) {
	for name, corrupt := range map[string]func(l *Loop){
		"out of range": func(l *Loop) { l.Body[1].ID = l.MaxID() },
		"negative":     func(l *Loop) { l.Body[1].ID = -1 },
		"repeated":     func(l *Loop) { l.Body[1].ID = l.Body[0].ID },
		"param repeat": func(l *Loop) { l.Params[0].ID = l.Body[2].ID },
	} {
		l := buildDaxpy()
		corrupt(l)
		if err := l.Validate(); err == nil {
			t.Errorf("%s: Validate accepted\n%s", name, l)
		}
	}
}

// TestValidateForeignOpSharingAnID: an argument from another loop is
// refused even when its ID names an op of this loop.
func TestValidateForeignOpSharingAnID(t *testing.T) {
	l1, l2 := buildDaxpy(), buildDaxpy()
	l2.Body[2].Args[0] = Use(l1.Body[0])
	err := l2.Validate()
	if err == nil || !strings.Contains(err.Error(), "uses value from another loop") {
		t.Errorf("Validate = %v, want a foreign-op error", err)
	}
}
