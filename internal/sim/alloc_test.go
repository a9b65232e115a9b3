package sim

import (
	"testing"

	"metaopt/internal/transform"
)

// TestCompileAllocCeiling pins a warm compile's allocations: the
// unroller's Info and a modulo schedule and its cycles. The unrolled loop,
// its graph, its list schedule and its register allocation come from the
// workspace pool and the prices are stored in the loop record, so a new
// map or per-op allocation on the compile path fails here. A compile for a
// pair prices both modes, under the same ceiling.
func TestCompileAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled workspaces")
	}
	const ceiling = 4
	pairOff, _ := NewTimerPair(exactTimer(false).Cfg)
	for _, tm := range []*Timer{exactTimer(false), exactTimer(true), pairOff} {
		for _, src := range reuseKernels {
			l := loop(t, src)
			rec := tm.record(l)
			for u := 1; u <= transform.MaxFactor; u++ {
				compile := func() {
					rec.mu.Lock()
					defer rec.mu.Unlock()
					for slot := range rec.compiles {
						rec.compiles[slot][u] = compiled{}
					}
					if err := tm.compileLoop(l, u, rec); err != nil {
						t.Fatal(err)
					}
				}
				compile()
				if allocs := testing.AllocsPerRun(50, compile); allocs > ceiling {
					t.Errorf("modes %v %s u=%d: a warm compile allocates %v times, want at most %d",
						tm.recs.modes, l.Name, u, allocs, ceiling)
				}
			}
		}
	}
}
