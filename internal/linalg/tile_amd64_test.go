package linalg

import (
	"math"
	"testing"
)

// The constants of math.Exp's amd64 assembly.
const (
	expLog2e = 1.4426950408889634073599246810018920
	expLn2u  = 0.69314718055966295651160180568695068359375
	expLn2l  = 0.28235290563031577122588448175013436025525412068e-12
)

// expPoly are the Taylor coefficients after the first, in Horner order.
var expPoly = []float64{1.9841269841269841270e-4, 1.3888888888888888889e-3,
	8.3333333333333333333e-3, 4.1666666666666666667e-2, 1.6666666666666666667e-1, 0.5, 1}

// expPath restates math.Exp's amd64 assembly in Go for arguments in
// [−708, 709], on its FMA path (fused) or its SSE2 path.
func expPath(x float64, fused bool) float64 {
	muladd := func(a, b, c float64) float64 {
		if fused {
			return math.FMA(a, b, c)
		}
		return a*b + c
	}
	k := math.RoundToEven(expLog2e * x)
	x = muladd(-k, expLn2u, x)
	x = muladd(-k, expLn2l, x)
	x *= 0.0625
	p := 2.4801587301587301587e-5
	for _, c := range expPoly {
		p = muladd(p, x, c)
	}
	x *= p
	for range 3 {
		x *= x + 2
	}
	x = muladd(x, x+2, 1)
	return x * math.Float64frombits(uint64(int64(k)+1023)<<52)
}

// TestExpProbeFollowsMathExp: every probe argument separates math.Exp's
// two paths, useExp holds exactly when the CPU runs the leaf and math.Exp
// takes its FMA path (GODEBUG=cpu.fma=off moves it off), and a probe that
// sees a mismatch turns the leaf off.
func TestExpProbeFollowsMathExp(t *testing.T) {
	fmaPath := true
	for _, x := range expProbes {
		f, s := expPath(x, true), expPath(x, false)
		if f == s {
			t.Fatalf("probe %v: both paths give %v", x, f)
		}
		switch math.Exp(x) {
		case f:
		case s:
			fmaPath = false
		default:
			t.Fatalf("probe %v: math.Exp = %v, FMA path %v, SSE2 path %v", x, math.Exp(x), f, s)
		}
	}
	if want := hasAVX(true) && fmaPath; expAvailable != want {
		t.Fatalf("useExp = %v, want %v (AVX2+FMA %v, math.Exp on its FMA path %v)", expAvailable, want, hasAVX(true), fmaPath)
	}
	if !hasAVX(true) {
		t.Skip("no AVX2/FMA on this CPU")
	}
	if !expProbe(func(x float64) float64 { return expPath(x, true) }) {
		t.Fatal("the probe rejects the FMA path")
	}
	if expProbe(func(x float64) float64 { return expPath(x, false) }) {
		t.Fatal("the probe accepts the SSE2 path")
	}
	if expProbe(func(x float64) float64 { return math.Nextafter(math.Exp(x), 0) }) {
		t.Fatal("the probe accepts results one ulp off")
	}
}

// TestLeafWidth logs the tile width this host runs and checks it against
// CPUID and XCR0: 8 with AVX-512F and the OS saving the opmask and ZMM
// state, 4 with AVX and YMM state, else 0. CI runs it with -v, so the log
// shows which width a runner tested.
func TestLeafWidth(t *testing.T) {
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, ecx, _ := cpuid(1, 0)
	var ebx7, xcr0 uint32
	if maxLeaf >= 7 {
		_, ebx7, _, _ = cpuid(7, 0)
	}
	osxsave := ecx&(1<<27) != 0
	if osxsave {
		xcr0 = xgetbv0()
	}
	avx := osxsave && ecx&(1<<28) != 0 && xcr0&0x6 == 0x6
	avx512 := avx && ebx7&(1<<16) != 0 && xcr0&0xe6 == 0xe6
	want := 0
	switch {
	case avx512:
		want = 8
	case avx:
		want = 4
	}
	t.Logf("tile width %d lanes (AVX %v, AVX-512F %v, XCR0 %#x); exp leaf %v", hostLanes, avx, avx512, xcr0, expAvailable)
	if hostLanes != want {
		t.Fatalf("lanes = %d, want %d", hostLanes, want)
	}
}
