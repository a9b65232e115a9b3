package sim

import (
	"math/rand"
	"testing"

	"metaopt/internal/ir"
	"metaopt/internal/lang"
	"metaopt/internal/machine"
	"metaopt/internal/transform"
)

func loop(t *testing.T, src string) *ir.Loop {
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

func exactTimer(swpOn bool) *Timer {
	cfg := DefaultConfig()
	cfg.Noise = 0
	cfg.SWP = swpOn
	return NewTimer(cfg)
}

const daxpy = `
kernel daxpy lang=c {
	param double a;
	double x[], y[];
	noalias;
	for i = 0 .. 4096 { y[i] = y[i] + a * x[i]; }
}`

func TestUnrollingHelpsDaxpyNoSWP(t *testing.T) {
	l := loop(t, daxpy)
	tm := exactTimer(false)
	c1, err := tm.Cycles(l, 1)
	if err != nil {
		t.Fatal(err)
	}
	c8, err := tm.Cycles(l, 8)
	if err != nil {
		t.Fatal(err)
	}
	if c8 >= c1 {
		t.Errorf("unrolling daxpy should help without SWP: u1=%d u8=%d", c1, c8)
	}
	// The benefit should be substantial (latency amortized over 8 copies).
	if float64(c1)/float64(c8) < 1.5 {
		t.Errorf("speedup only %.2fx", float64(c1)/float64(c8))
	}
}

func TestSWPReducesGapFromUnrolling(t *testing.T) {
	l := loop(t, daxpy)
	off := exactTimer(false)
	on := exactTimer(true)
	off1, _ := off.Cycles(l, 1)
	on1, err := on.Cycles(l, 1)
	if err != nil {
		t.Fatal(err)
	}
	if on1 >= off1 {
		t.Errorf("pipelining the rolled loop should help: off=%d on=%d", off1, on1)
	}
	// With SWP on, the additional win from unrolling is much smaller than
	// without it.
	on8, _ := on.Cycles(l, 8)
	off8, _ := off.Cycles(l, 8)
	gainOff := float64(off1) / float64(off8)
	gainOn := float64(on1) / float64(on8)
	if gainOn >= gainOff {
		t.Errorf("SWP should shrink unrolling gains: off %.2fx on %.2fx", gainOff, gainOn)
	}
}

func TestEarlyExitPenalizesUnrolling(t *testing.T) {
	src := `
kernel search lang=c {
	double a[];
	double s;
	for i = 0 .. n { s = s + a[i]; if (s > 1000.0) break; }
}`
	l := loop(t, src)
	l.RuntimeTrip = 37 // exits early, often mid-body
	tm := exactTimer(false)
	c1, _ := tm.Cycles(l, 1)
	c8, err := tm.Cycles(l, 8)
	if err != nil {
		t.Fatal(err)
	}
	// With a 37-iteration trip, u=8 wastes up to 7 iterations of work plus
	// extra exit branches; the win must be small or negative relative to
	// what daxpy-style loops get.
	if float64(c1)/float64(c8) > 1.6 {
		t.Errorf("early-exit loop gained too much from unrolling: u1=%d u8=%d", c1, c8)
	}
}

func TestRemainderCostPenalizesNonDivisor(t *testing.T) {
	src := `
kernel shortloop lang=c {
	double x[], y[];
	noalias;
	for i = 0 .. 12 { y[i] = y[i] + x[i]; }
}`
	l := loop(t, src)
	l.Entries = 10000 // entered many times, 12 iterations each
	tm := exactTimer(false)
	c4, err := tm.Cycles(l, 4) // divides 12 exactly
	if err != nil {
		t.Fatal(err)
	}
	c8, err := tm.Cycles(l, 8) // leaves a remainder of 4 every entry
	if err != nil {
		t.Fatal(err)
	}
	if c8 <= c4 {
		t.Errorf("remainder of 4 rolled iterations should hurt: u4=%d u8=%d", c4, c8)
	}
}

func TestSerialRecurrenceGainsLittle(t *testing.T) {
	src := `
kernel serial lang=fortran {
	double a[];
	double s;
	for i = 0 .. 4096 { s = s*0.99 + a[i]; }
}`
	l := loop(t, src)
	tm := exactTimer(false)
	c1, _ := tm.Cycles(l, 1)
	c8, _ := tm.Cycles(l, 8)
	gain := float64(c1) / float64(c8)
	// The chain is strictly serial: gains come only from amortized loads
	// and overhead, far less than a parallel loop would see.
	if gain > 1.8 {
		t.Errorf("serial recurrence gained %.2fx from unrolling", gain)
	}
}

func TestStatsExposeCompilation(t *testing.T) {
	l := loop(t, daxpy)
	tm := exactTimer(true)
	st, err := tm.Stats(l, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Pipelined || st.II < 1 || st.Stages < 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.BodyOps <= 7 {
		t.Errorf("unrolled body ops = %d", st.BodyOps)
	}
	tm2 := exactTimer(false)
	st2, err := tm2.Stats(l, 4)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Pipelined {
		t.Error("SWP-off stats claim pipelining")
	}
	if st2.Period <= 0 {
		t.Errorf("period = %v", st2.Period)
	}
}

func TestCallsDisablePipelining(t *testing.T) {
	src := `
kernel callk lang=c {
	double a[];
	for i = 0 .. 512 { a[i] = a[i] + 1.0; call f(); }
}`
	l := loop(t, src)
	tm := exactTimer(true)
	st, err := tm.Stats(l, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Pipelined {
		t.Error("loop with calls must not be pipelined")
	}
}

func TestMeasureMedianTracksTruth(t *testing.T) {
	l := loop(t, daxpy)
	cfg := DefaultConfig()
	cfg.SWP = false
	tm := NewTimer(cfg)
	rng := rand.New(rand.NewSource(1))
	exact, err := tm.Cycles(l, 2)
	if err != nil {
		t.Fatal(err)
	}
	med, err := tm.MeasureScaled(l, 2, rng, 1)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(med) / float64(exact)
	if ratio < 0.97 || ratio > 1.03 {
		t.Errorf("median measurement off by %.3fx", ratio)
	}
}

func TestMeasureAllAndFloor(t *testing.T) {
	l := loop(t, daxpy) // 4096 iters × ~1-11 cycles: above the 50k floor rolled
	cfg := DefaultConfig()
	cfg.SWP = false
	tm := NewTimer(cfg)
	rng := rand.New(rand.NewSource(7))
	cycles, usable, err := tm.MeasureAll(l, rng, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cycles[1] < cycles[8] {
		t.Errorf("expected unrolling to help: %v", cycles)
	}
	_ = usable // depends on the floor; check the floor logic directly:
	small := loop(t, `
kernel tiny lang=c {
	double a[];
	for i = 0 .. 8 { a[i] = a[i] + 1.0; }
}`)
	_, usableSmall, err := tm.MeasureAll(small, rng, 1)
	if err != nil {
		t.Fatal(err)
	}
	if usableSmall {
		t.Error("an 8-iteration loop must fall below the instrumentation floor")
	}
}

func TestTimerCacheConsistency(t *testing.T) {
	l := loop(t, daxpy)
	tm := exactTimer(false)
	a, _ := tm.Cycles(l, 3)
	b, _ := tm.Cycles(l, 3)
	if a != b {
		t.Errorf("cache inconsistency: %d vs %d", a, b)
	}
}

func TestEmbeddedMachinePrefersSmallerFactors(t *testing.T) {
	// On the narrow machine with a tiny I-cache, aggressive unrolling of a
	// modest loop should pay less than on Itanium 2.
	l := loop(t, daxpy)
	cfgE := &Config{Mach: machine.Embedded(), Runs: 1}
	e := NewTimer(cfgE)
	i2 := exactTimer(false)
	e1, err := e.Cycles(l, 1)
	if err != nil {
		t.Fatal(err)
	}
	e8, err := e.Cycles(l, 8)
	if err != nil {
		t.Fatal(err)
	}
	i1, _ := i2.Cycles(l, 1)
	i8, _ := i2.Cycles(l, 8)
	gainE := float64(e1) / float64(e8)
	gainI := float64(i1) / float64(i8)
	if gainE >= gainI {
		t.Errorf("embedded gain %.2fx should trail itanium gain %.2fx", gainE, gainI)
	}
}

func TestAllFactorsAllKernels(t *testing.T) {
	srcs := []string{
		daxpy,
		`kernel dot lang=fortran { double a[], b[]; double s; for i = 0 .. 512 { s = s + a[i]*b[i]; } }`,
		`kernel stencil lang=c { double a[], b[]; noalias; for i = 1 .. 511 { b[i] = a[i-1] + a[i] + a[i+1]; } }`,
		`kernel gather lang=c { double a[], b[]; int idx[]; for i = 0 .. 200 { a[i] = b[idx[i]]; } }`,
		`kernel pred lang=c { double a[], b[]; for i = 0 .. 300 { if (a[i] > 0.0) { b[i] = a[i]; } } }`,
	}
	for _, swpOn := range []bool{false, true} {
		tm := exactTimer(swpOn)
		for _, src := range srcs {
			l := loop(t, src)
			for u := 1; u <= transform.MaxFactor; u++ {
				c, err := tm.Cycles(l, u)
				if err != nil {
					t.Fatalf("%s u=%d swp=%v: %v", l.Name, u, swpOn, err)
				}
				if c <= 0 {
					t.Errorf("%s u=%d swp=%v: %d cycles", l.Name, u, swpOn, c)
				}
			}
		}
	}
}

func TestBiasNoiseSurvivesMedian(t *testing.T) {
	l := loop(t, daxpy)
	cfg := DefaultConfig()
	cfg.Noise = 0
	cfg.BiasNoise = 0.05
	tm := NewTimer(cfg)
	exact, err := tm.Cycles(l, 2)
	if err != nil {
		t.Fatal(err)
	}
	// With per-run noise at zero, the measurement equals base×bias exactly;
	// across many sessions the spread must reflect the bias, which a median
	// cannot remove.
	rng := rand.New(rand.NewSource(3))
	differs := 0
	for trial := 0; trial < 20; trial++ {
		m, err := tm.MeasureScaled(l, 2, rng, 1)
		if err != nil {
			t.Fatal(err)
		}
		if m != exact {
			differs++
		}
	}
	if differs < 15 {
		t.Errorf("systematic bias visible in only %d/20 sessions", differs)
	}
}

func TestContextFactorsDeterministicPerLoop(t *testing.T) {
	a := loop(t, daxpy)
	b := loop(t, daxpy)
	b.Benchmark = "other"
	cfg := DefaultConfig()
	cfg.Noise = 0
	cfg.BiasNoise = 0
	tm := NewTimer(cfg)
	ca1, err := tm.Cycles(a, 4)
	if err != nil {
		t.Fatal(err)
	}
	ca2, err := NewTimer(cfg).Cycles(a, 4)
	if err != nil {
		t.Fatal(err)
	}
	if ca1 != ca2 {
		t.Error("hidden context not deterministic for the same loop")
	}
	cb, err := tm.Cycles(b, 4)
	if err != nil {
		t.Fatal(err)
	}
	if cb == ca1 {
		t.Error("different benchmark identity should give different hidden context")
	}
}
