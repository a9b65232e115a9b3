package lang

import (
	"strings"
	"testing"

	"metaopt/internal/ir"
)

func mustLower(t *testing.T, src string) *ir.Loop {
	t.Helper()
	k, err := ParseKernel(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	l, err := Lower(k)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return l
}

func countCode(l *ir.Loop, code ir.Opcode) int {
	return l.Count(func(o *ir.Op) bool { return o.Code == code })
}

func TestLowerDaxpy(t *testing.T) {
	l := mustLower(t, `
kernel daxpy lang=c {
	param double a;
	double x[], y[];
	noalias;
	for i = 0 .. 4096 {
		y[i] = y[i] + a * x[i];
	}
}`)
	if l.TripCount != 4096 || l.RuntimeTrip != 4096 {
		t.Errorf("trip = %d/%d", l.TripCount, l.RuntimeTrip)
	}
	if !l.NoAlias {
		t.Error("NoAlias not set")
	}
	if l.Lang != ir.LangC {
		t.Errorf("lang = %v", l.Lang)
	}
	// Expect: 2 loads, FMA (fused), store, iv add, cmp, br = 7 ops.
	if countCode(l, ir.OpLoad) != 2 {
		t.Errorf("loads = %d, want 2", countCode(l, ir.OpLoad))
	}
	if countCode(l, ir.OpFMA) != 1 {
		t.Errorf("fma = %d, want 1 (fusion failed?)\n%s", countCode(l, ir.OpFMA), l)
	}
	if countCode(l, ir.OpFMul) != 0 || countCode(l, ir.OpFAdd) != 0 {
		t.Errorf("unfused fp ops remain:\n%s", l)
	}
	if countCode(l, ir.OpStore) != 1 || countCode(l, ir.OpBr) != 1 || countCode(l, ir.OpCmp) != 1 {
		t.Errorf("store/br/cmp counts wrong:\n%s", l)
	}
	if l.NumOps() != 7 {
		t.Errorf("ops = %d, want 7:\n%s", l.NumOps(), l)
	}
}

func TestLowerReduction(t *testing.T) {
	l := mustLower(t, `
kernel dot lang=fortran {
	double a[], b[];
	double s;
	for i = 0 .. 1024 {
		s = s + a[i] * b[i];
	}
}`)
	if !l.NoAlias {
		t.Error("fortran should imply noalias")
	}
	// The reduction must produce a self-carried FMA: s += a*b.
	var fma *ir.Op
	for _, op := range l.Body {
		if op.Code == ir.OpFMA {
			fma = op
		}
	}
	if fma == nil {
		t.Fatalf("no FMA:\n%s", l)
	}
	carried := false
	for _, a := range fma.Args {
		if a.Op == fma && a.Dist == 1 {
			carried = true
		}
	}
	if !carried {
		t.Errorf("reduction not self-carried: %s\n%s", fma, l)
	}
}

func TestLowerRecurrenceDistance(t *testing.T) {
	// b[i] = b[i-2] + 1 is a memory recurrence; the loads/stores carry the
	// distance in their MemRefs (analysis recovers distance 2).
	l := mustLower(t, `
kernel rec lang=c {
	double b[];
	for i = 2 .. 1000 {
		b[i] = b[i-2] * 0.5;
	}
}`)
	var load, store *ir.Op
	for _, op := range l.Body {
		switch op.Code {
		case ir.OpLoad:
			load = op
		case ir.OpStore:
			store = op
		}
	}
	if load == nil || store == nil {
		t.Fatalf("missing load/store:\n%s", l)
	}
	if load.Mem.Offset != -2 || load.Mem.Stride != 1 {
		t.Errorf("load ref = %s", load.Mem)
	}
	if store.Mem.Offset != 0 || store.Mem.Stride != 1 {
		t.Errorf("store ref = %s", store.Mem)
	}
	if l.TripCount != 998 {
		t.Errorf("trip = %d, want 998", l.TripCount)
	}
}

func TestLowerScalarCarriedRead(t *testing.T) {
	// t is read before being written: the read refers to the previous
	// iteration's final value.
	l := mustLower(t, `
kernel lag lang=c {
	double a[];
	double t;
	for i = 0 .. 100 {
		a[i] = t;
		t = a[i] * 2;
	}
}`)
	var store *ir.Op
	for _, op := range l.Body {
		if op.Code == ir.OpStore {
			store = op
			break
		}
	}
	if store == nil {
		t.Fatal("no store")
	}
	// The store's value argument must be carried at distance 1.
	val := store.Args[len(store.Args)-1]
	if val.Dist != 1 {
		t.Errorf("store value dist = %d, want 1:\n%s", val.Dist, l)
	}
	if val.Op.Name != "t" {
		t.Errorf("store value op = %s", val.Op)
	}
}

func TestLowerIfConversion(t *testing.T) {
	l := mustLower(t, `
kernel clip lang=c {
	double a[], b[];
	for i = 0 .. 100 {
		if (a[i] > 1.0) {
			b[i] = 1.0;
		}
	}
}`)
	if countCode(l, ir.OpFCmp) != 1 {
		t.Errorf("fcmp = %d:\n%s", countCode(l, ir.OpFCmp), l)
	}
	var store *ir.Op
	for _, op := range l.Body {
		if op.Code == ir.OpStore {
			store = op
		}
	}
	if store == nil || !store.Predicated || store.PredID != 1 {
		t.Errorf("store not predicated: %v\n%s", store, l)
	}
	if l.EarlyExit {
		t.Error("if without break should not set EarlyExit")
	}
}

func TestLowerConditionalScalarUsesSel(t *testing.T) {
	l := mustLower(t, `
kernel selmax lang=c {
	double a[];
	double m;
	for i = 0 .. 100 {
		if (a[i] > m) {
			m = a[i];
		}
	}
}`)
	if countCode(l, ir.OpSel) != 1 {
		t.Errorf("sel = %d, want 1:\n%s", countCode(l, ir.OpSel), l)
	}
	// The Sel is the carried definition of m: its old-value argument refers
	// to itself at distance 1.
	var sel *ir.Op
	for _, op := range l.Body {
		if op.Code == ir.OpSel {
			sel = op
		}
	}
	self := false
	for _, a := range sel.Args {
		if a.Op == sel && a.Dist == 1 {
			self = true
		}
	}
	if !self {
		t.Errorf("sel not self-carried: %s\n%s", sel, l)
	}
}

func TestLowerEarlyExit(t *testing.T) {
	l := mustLower(t, `
kernel find lang=c {
	double a[];
	for i = 0 .. n {
		if (a[i] == 0.0) break;
	}
}`)
	if !l.EarlyExit {
		t.Error("EarlyExit not set")
	}
	if countCode(l, ir.OpCondBr) != 1 {
		t.Errorf("condbr = %d:\n%s", countCode(l, ir.OpCondBr), l)
	}
	if l.TripCount != -1 {
		t.Errorf("symbolic trip = %d, want -1", l.TripCount)
	}
	if l.RuntimeTrip != 1000 {
		t.Errorf("default runtime trip = %d, want 1000", l.RuntimeTrip)
	}
}

func TestLowerIndirect(t *testing.T) {
	l := mustLower(t, `
kernel gather lang=c {
	double a[], b[];
	int idx[];
	for i = 0 .. 100 {
		a[i] = b[idx[i]];
	}
}`)
	var indirect *ir.Op
	for _, op := range l.Body {
		if op.Code == ir.OpLoad && op.Mem.Indirect {
			indirect = op
		}
	}
	if indirect == nil {
		t.Fatalf("no indirect load:\n%s", l)
	}
	// The indirect load must depend on the index load.
	if len(indirect.Args) != 1 || indirect.Args[0].Op.Code != ir.OpLoad {
		t.Errorf("indirect load deps = %v", indirect.Args)
	}
}

func TestLowerConversion(t *testing.T) {
	l := mustLower(t, `
kernel mix lang=c {
	double a[];
	int k[];
	for i = 0 .. 100 {
		a[i] = a[i] + k[i];
	}
}`)
	if countCode(l, ir.OpConv) != 1 {
		t.Errorf("conv = %d, want 1:\n%s", countCode(l, ir.OpConv), l)
	}
}

func TestLowerAttrs(t *testing.T) {
	l := mustLower(t, `
kernel attrs lang=f90 nest=3 entries=7 runtime_trip=321 {
	double a[];
	for i = 0 .. n {
		a[i] = 0;
	}
}`)
	if l.Lang != ir.LangFortran90 || !l.NoAlias {
		t.Errorf("lang = %v noalias = %v", l.Lang, l.NoAlias)
	}
	if l.NestLevel != 3 || l.Entries != 7 || l.RuntimeTrip != 321 {
		t.Errorf("nest/entries/rtrip = %d/%d/%d", l.NestLevel, l.Entries, l.RuntimeTrip)
	}
}

func TestLowerIVAsValue(t *testing.T) {
	l := mustLower(t, `
kernel ivuse lang=c {
	double a[];
	for i = 0 .. 100 {
		a[i] = i * 2;
	}
}`)
	// Must validate (the IV read resolves to the increment op at distance 1)
	// and include an int multiply plus a conversion to double.
	if countCode(l, ir.OpMul) != 1 {
		t.Errorf("mul = %d:\n%s", countCode(l, ir.OpMul), l)
	}
	if countCode(l, ir.OpConv) != 1 {
		t.Errorf("conv = %d:\n%s", countCode(l, ir.OpConv), l)
	}
}

func TestLowerScalarCopyOfCarried(t *testing.T) {
	l := mustLower(t, `
kernel copy lang=c {
	double a[];
	double s, t;
	for i = 0 .. 10 {
		t = s;
		s = a[i];
		a[i] = t;
	}
}`)
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLowerErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"undeclared array", "kernel k { for i = 0 .. 4 { a[i]=0; } }"},
		{"undeclared scalar read", "kernel k { double a[]; for i = 0 .. 4 { a[i]=zz; } }"},
		{"assign to param", "kernel k { param double p; double a[]; for i = 0 .. 4 { p = a[i]; } }"},
		{"bad lang", "kernel k lang=ada { double a[]; for i = 0 .. 4 { a[i]=0; } }"},
		{"bad nest", "kernel k nest=zero { double a[]; for i = 0 .. 4 { a[i]=0; } }"},
		{"unknown attr", "kernel k wibble=3 { double a[]; for i = 0 .. 4 { a[i]=0; } }"},
		{"zero trip", "kernel k { double a[]; for i = 5 .. 5 { a[i]=0; } }"},
		{"nonaffine index", "kernel k { double a[]; for i = 0 .. 4 { a[i*i]=0; } }"},
		{"nested if", "kernel k { double a[]; for i = 0 .. 4 { if (a[i] > 0) { if (a[i] > 1) { a[i]=0; } } } }"},
		{"iv shadows scalar", "kernel k { double i; double a[]; for i = 0 .. 4 { a[i]=0; } }"},
		{"iv shadows array", "kernel k { double i[]; for i = 0 .. 4 { i[i]=0; } }"},
		{"redeclaration", "kernel k { double a[]; double a; for i = 0 .. 4 { a=0; } }"},
		{"comparison as value", "kernel k { double a[]; for i = 0 .. 4 { a[i] = (a[i] > 0); } }"},
		{"non-comparison cond", "kernel k { double a[]; for i = 0 .. 4 { if (a[i]) break; } }"},
	}
	for _, c := range cases {
		k, err := ParseKernel(c.src)
		if err != nil {
			continue // parse-level rejection also counts
		}
		if _, err := Lower(k); err == nil {
			t.Errorf("%s: expected lowering error", c.name)
		}
	}
}

// TestLowerAttrErrorStable: a kernel with several bad attributes gets the
// same error on every call, from the first bad attribute in sorted order,
// not from whichever one a map range happens to meet first.
func TestLowerAttrErrorStable(t *testing.T) {
	const src = "kernel k lang=zz nest=0 entries=0 { double a[]; for i = 0 .. 4 { a[i]=0; } }"
	errs := map[string]int{}
	for i := 0; i < 100; i++ {
		k, err := ParseKernel(src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Lower(k); err == nil {
			t.Fatal("kernel with bad attributes lowered")
		} else {
			errs[err.Error()]++
		}
	}
	if len(errs) != 1 {
		t.Fatalf("100 lowerings gave %d different errors: %v", len(errs), errs)
	}
	for e := range errs {
		if !strings.Contains(e, `bad entries "0"`) {
			t.Errorf("error %q, want the entries attribute's (first in sorted order)", e)
		}
	}
}

func TestLowerFile(t *testing.T) {
	loops, err := LowerFile(`
kernel a lang=c { double x[]; for i = 0 .. 4 { x[i] = 0; } }
kernel b lang=fortran { double x[]; for i = 0 .. 4 { x[i] = 1; } }
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(loops) != 2 || loops[0].Name != "a" || loops[1].Name != "b" {
		t.Errorf("loops = %v", loops)
	}
}

func TestLoweredLoopsValidate(t *testing.T) {
	srcs := []string{
		`kernel k1 lang=c { double a[], b[], c[]; for i = 0 .. 100 { c[i] = a[i]*b[i] + a[i+1]*b[i+1]; } }`,
		`kernel k2 lang=fortran { double a[]; double s; for i = 0 .. 100 { s = s + a[2*i] / a[2*i+1]; } }`,
		`kernel k3 lang=c { double a[]; int p[]; for i = 0 .. n { if (p[i] != 0) { a[p[i]] = a[p[i]] + 1; } } }`,
		`kernel k4 lang=c { double a[]; double s; for i = 0 .. n { s = s + a[i]; if (s > 100) break; call log(); } }`,
	}
	for _, src := range srcs {
		l := mustLower(t, src)
		if err := l.Validate(); err != nil {
			t.Errorf("%s: %v", l.Name, err)
		}
	}
}

func TestLowerNestedLoops(t *testing.T) {
	l := mustLower(t, `
kernel mm lang=fortran entries=2 {
	double a[], b[], c[];
	for j = 0 .. 16 {
		for i = 0 .. 64 {
			c[i] = c[i] + a[i] * b[64*i];
		}
	}
}`)
	if l.NestLevel != 2 {
		t.Errorf("nest level = %d, want 2", l.NestLevel)
	}
	// entries attribute × outer trip.
	if l.Entries != 2*16 {
		t.Errorf("entries = %d, want 32", l.Entries)
	}
	if l.TripCount != 64 {
		t.Errorf("trip = %d, want 64 (innermost)", l.TripCount)
	}
}

func TestLowerTripleNest(t *testing.T) {
	l := mustLower(t, `
kernel deep lang=c {
	double a[];
	for k = 0 .. 4 {
		for j = 0 .. 8 {
			for i = 0 .. 128 {
				a[i] = a[i] + 1.0;
			}
		}
	}
}`)
	if l.NestLevel != 3 {
		t.Errorf("nest level = %d, want 3", l.NestLevel)
	}
	if l.Entries != 4*8 {
		t.Errorf("entries = %d, want 32", l.Entries)
	}
}

func TestLowerOuterIVIsInvariant(t *testing.T) {
	// Reading the outer IV inside the innermost body is legal: it is
	// loop-invariant there (becomes a parameter).
	l := mustLower(t, `
kernel rowsum lang=c {
	double a[], s[];
	for j = 0 .. 8 {
		for i = 0 .. 64 {
			s[i] = s[i] + a[i] + j;
		}
	}
}`)
	found := false
	for _, p := range l.Params {
		if p.Name == "j" {
			found = true
		}
	}
	if !found {
		t.Errorf("outer IV not materialized as a parameter:\n%s", l)
	}
}

func TestLowerNestedSymbolicOuter(t *testing.T) {
	l := mustLower(t, `
kernel symouter lang=c {
	double a[];
	for j = 0 .. m {
		for i = 0 .. 128 {
			a[i] = a[i] * 2.0;
		}
	}
}`)
	// Symbolic outer bound assumes a default entry multiplier.
	if l.Entries != 50 {
		t.Errorf("entries = %d, want 50", l.Entries)
	}
}

func TestLowerNestedErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"imperfect nest", `kernel k { double a[]; for j = 0 .. 8 { a[0] = 1.0; for i = 0 .. 8 { a[i] = 0.0; } } }`},
		{"outer iv shadows decl", `kernel k { double j; double a[]; for j = 0 .. 8 { for i = 0 .. 8 { a[i] = 0.0; } } }`},
		{"duplicate ivs", `kernel k { double a[]; for i = 0 .. 8 { for i = 0 .. 8 { a[i] = 0.0; } } }`},
		{"zero-trip outer", `kernel k { double a[]; for j = 5 .. 5 { for i = 0 .. 8 { a[i] = 0.0; } } }`},
	}
	for _, c := range cases {
		k, err := ParseKernel(c.src)
		if err != nil {
			continue
		}
		if _, err := Lower(k); err == nil {
			t.Errorf("%s: expected lowering error", c.name)
		}
	}
}
