package sim

import (
	"testing"

	"metaopt/internal/transform"
)

// Kernels exercising the distinct compile paths: plain vector code, a
// loop-carried reduction (recurrence-bound under SWP), a non-noalias
// stencil, and an early exit (never pipelined).
var reuseKernels = []string{
	daxpy,
	`
kernel reduce lang=fortran {
	double a[];
	double s;
	for i = 0 .. 300 { s = s + a[i]*a[i]; }
}`,
	`
kernel stencil lang=c {
	double a[], b[];
	for i = 1 .. 1000 { b[i] = a[i-1] + a[i] + a[i+1]; }
}`,
	`
kernel search lang=c {
	double a[];
	double s;
	for i = 0 .. n { s = s + a[i]; if (s > 1000.0) break; }
}`,
}

// TestCompileReuseBitIdentical compiles every kernel at every factor
// twice: through one Timer, whose loop record shares validation, the
// rolled-body recurrence analysis and the remainder price across factors
// (the production path), and through a fresh Timer per call, which
// computes all of them for that factor alone. The shared Timer is a lone
// one, then one of a pair, whose record also shares the unrolled body,
// its graph and its list schedule across modes. Cycle counts and compile
// stats must match exactly.
func TestCompileReuseBitIdentical(t *testing.T) {
	var pair [2]*Timer
	pair[0], pair[1] = NewTimerPair(exactTimer(false).Cfg)
	for i, tm := range []*Timer{exactTimer(false), exactTimer(true), pair[0], pair[1]} {
		swpOn := i%2 == 1
		for _, src := range reuseKernels {
			l := loop(t, src)
			for u := 1; u <= transform.MaxFactor; u++ {
				got, err := tm.compile(l, u)
				if err != nil {
					t.Fatalf("swp=%v %s u=%d: shared: %v", swpOn, l.Name, u, err)
				}
				want, err := exactTimer(swpOn).compile(l, u)
				if err != nil {
					t.Fatalf("swp=%v %s u=%d: fresh: %v", swpOn, l.Name, u, err)
				}
				if got.perEntry != want.perEntry {
					t.Errorf("swp=%v %s u=%d: perEntry %v != fresh %v",
						swpOn, l.Name, u, got.perEntry, want.perEntry)
				}
				if got.stats != want.stats {
					t.Errorf("swp=%v %s u=%d: stats %+v != fresh %+v",
						swpOn, l.Name, u, got.stats, want.stats)
				}
			}
		}
	}
}
