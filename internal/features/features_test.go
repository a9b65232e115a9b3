package features

import (
	"testing"

	"metaopt/internal/ir"
	"metaopt/internal/lang"
	"metaopt/internal/machine"
)

func vec(t *testing.T, src string) []float64 {
	t.Helper()
	return Extract(lower(t, src), machine.Itanium2())
}

func lower(t *testing.T, src string) *ir.Loop {
	t.Helper()
	k, err := lang.ParseKernel(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	l, err := lang.Lower(k)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return l
}

func TestNamesComplete(t *testing.T) {
	if len(Names) != NumFeatures {
		t.Fatalf("Names has %d entries", len(Names))
	}
	seen := map[string]bool{}
	for i, n := range Names {
		if n == "" {
			t.Errorf("feature %d has no name", i)
		}
		if seen[n] {
			t.Errorf("duplicate feature name %q", n)
		}
		seen[n] = true
	}
	if FKnownTrip != NumFeatures-1 {
		t.Errorf("index constants out of sync: FKnownTrip = %d", FKnownTrip)
	}
}

func TestIndexLookup(t *testing.T) {
	if Index("num_fp_ops") != FNumFloatOps {
		t.Error("Index(num_fp_ops) wrong")
	}
	if Index("nope") != -1 {
		t.Error("Index(nope) should be -1")
	}
}

func TestDaxpyFeatures(t *testing.T) {
	v := vec(t, `
kernel daxpy lang=c {
	param double a;
	double x[], y[];
	noalias;
	for i = 0 .. 4096 { y[i] = y[i] + a * x[i]; }
}`)
	checks := []struct {
		idx  int
		want float64
	}{
		{FNestLevel, 1},
		{FNumOps, 7},
		{FNumFloatOps, 1}, // the fused FMA
		{FNumBranches, 1},
		{FNumMemOps, 3},
		{FNumLoads, 2},
		{FNumStores, 1},
		{FStride1Refs, 3},
		{FTripCount, 4096},
		{FKnownTrip, 1},
		{FLangFortran, 0},
		{FEarlyExit, 0},
		{FIndirectRefs, 0},
		{FNumCalls, 0},
		{FNumDivides, 0},
		{FNumPredicates, 0},
	}
	for _, c := range checks {
		if v[c.idx] != c.want {
			t.Errorf("%s = %v, want %v", Names[c.idx], v[c.idx], c.want)
		}
	}
	if v[FCriticalPath] < 10 {
		t.Errorf("critical path = %v", v[FCriticalPath])
	}
	if v[FRecMII] != 1 { // induction-variable recurrence
		t.Errorf("rec mii = %v", v[FRecMII])
	}
}

func TestFortranAndUnknownTrip(t *testing.T) {
	v := vec(t, `
kernel f lang=fortran nest=3 {
	double a[];
	for i = 0 .. n { a[i] = a[i] * 2.0; }
}`)
	if v[FLangFortran] != 1 || v[FNestLevel] != 3 {
		t.Errorf("lang/nest = %v/%v", v[FLangFortran], v[FNestLevel])
	}
	if v[FTripCount] != -1 || v[FKnownTrip] != 0 {
		t.Errorf("trip = %v known = %v", v[FTripCount], v[FKnownTrip])
	}
}

func TestControlFeatures(t *testing.T) {
	v := vec(t, `
kernel ctl lang=c {
	double a[], b[];
	double m;
	for i = 0 .. n {
		if (a[i] > m) { m = a[i]; }
		if (b[i] == 0.0) break;
		call f();
	}
}`)
	if v[FNumPredicates] != 1 {
		t.Errorf("predicates = %v, want 1", v[FNumPredicates])
	}
	if v[FEarlyExit] != 1 {
		t.Error("early exit not detected")
	}
	if v[FNumCalls] != 1 {
		t.Errorf("calls = %v", v[FNumCalls])
	}
	if v[FNumBranches] != 2 { // side exit + back edge
		t.Errorf("branches = %v", v[FNumBranches])
	}
	if v[FNumImplicit] < 2 { // sel + iv
		t.Errorf("implicit = %v", v[FNumImplicit])
	}
}

func TestMemoryFeatures(t *testing.T) {
	v := vec(t, `
kernel mem lang=fortran {
	double a[], b[], c[];
	int idx[];
	for i = 0 .. 512 {
		a[i] = a[i-4] + b[8*i] + c[idx[i]] + b[0];
	}
}`)
	if v[FIndirectRefs] != 1 {
		t.Errorf("indirect = %v", v[FIndirectRefs])
	}
	if v[FWideStrideRefs] != 1 {
		t.Errorf("wide stride = %v", v[FWideStrideRefs])
	}
	if v[FStride0Refs] != 1 {
		t.Errorf("stride0 = %v", v[FStride0Refs])
	}
	if v[FMinMemDist] != 4 {
		t.Errorf("min mem dist = %v, want 4", v[FMinMemDist])
	}
	if v[FNumMemDeps] < 1 {
		t.Errorf("mem deps = %v", v[FNumMemDeps])
	}
}

func TestRecurrenceFeature(t *testing.T) {
	v := vec(t, `
kernel dot lang=fortran {
	double a[], b[];
	double s;
	for i = 0 .. 512 { s = s + a[i]*b[i]; }
}`)
	if v[FRecMII] != float64(machine.Itanium2().FPLat) {
		t.Errorf("rec mii = %v", v[FRecMII])
	}
	if v[FResMII] <= 0 {
		t.Errorf("res mii = %v", v[FResMII])
	}
}

func TestVectorsDiffer(t *testing.T) {
	a := vec(t, `
kernel a lang=c { double x[]; for i = 0 .. 64 { x[i] = x[i] + 1.0; } }`)
	b := vec(t, `
kernel b lang=fortran { double x[], y[]; double s; for i = 0 .. n { s = s + x[i]*y[2*i]; } }`)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
	}
	if same {
		t.Error("distinct loops produced identical feature vectors")
	}
}

func TestDescribe(t *testing.T) {
	v := make([]float64, NumFeatures)
	s := Describe(v)
	if len(s) == 0 {
		t.Error("empty description")
	}
}

func TestExtractDeterministic(t *testing.T) {
	src := `
kernel det lang=c { double x[], y[]; noalias; for i = 0 .. 100 { y[i] = x[i] * 3.0; } }`
	a := vec(t, src)
	b := vec(t, src)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("feature %s differs across runs", Names[i])
		}
	}
}

func TestDescriptionsComplete(t *testing.T) {
	if len(Descriptions) != NumFeatures {
		t.Fatalf("Descriptions has %d entries", len(Descriptions))
	}
	for i, d := range Descriptions {
		if d == "" {
			t.Errorf("feature %s lacks a description", Names[i])
		}
	}
}
