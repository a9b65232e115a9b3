package sim

import (
	"testing"

	"metaopt/internal/transform"
)

// TestCompileAllocCeiling pins a warm compile's allocations: the cached
// result, the unroller's Info and the schedule (a list schedule and its
// cycles, or a modulo schedule and its cycles). The unrolled loop, its
// graph and its register allocation come from the workspace pool, so a
// new map or per-op allocation on the compile path fails here.
func TestCompileAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled workspaces")
	}
	const ceiling = 4
	for _, swpOn := range []bool{false, true} {
		tm := exactTimer(swpOn)
		for _, src := range reuseKernels {
			l := loop(t, src)
			rec := tm.record(l)
			for u := 1; u <= transform.MaxFactor; u++ {
				compile := func() {
					rec.mu.Lock()
					defer rec.mu.Unlock()
					if _, err := tm.compileLoop(l, u, rec); err != nil {
						t.Fatal(err)
					}
				}
				compile()
				if allocs := testing.AllocsPerRun(50, compile); allocs > ceiling {
					t.Errorf("swp=%v %s u=%d: a warm compile allocates %v times, want at most %d",
						swpOn, l.Name, u, allocs, ceiling)
				}
			}
		}
	}
}
