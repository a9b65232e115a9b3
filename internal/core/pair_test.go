package core

import (
	"fmt"
	"reflect"
	"testing"

	"metaopt/internal/loopgen"
	"metaopt/internal/machine"
	"metaopt/internal/ml"
	"metaopt/internal/par"
	"metaopt/internal/sim"
)

// TestTimerPairLabelsMatchLoneTimers labels a corpus in both SWP modes
// through the two Timers of a pair, which compile each (loop, unroll)
// pair once for both modes, and through two lone Timers. The labels and
// the datasets must be identical, whichever Timer of the pair labels
// first, at the default pool width and on one worker.
func TestTimerPairLabelsMatchLoneTimers(t *testing.T) {
	c, err := loopgen.Generate(loopgen.Options{Seed: 2005, LoopsScale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	const seed = 2105
	for _, m := range []*machine.Desc{machine.Itanium2(), machine.Embedded()} {
		cfg := sim.DefaultConfig()
		cfg.Mach = m
		var want [2]*Labels
		var wantData [2]*ml.Dataset
		for mode, swpOn := range []bool{false, true} {
			lc := *cfg
			lc.SWP = swpOn
			tm := sim.NewTimer(&lc)
			lb, err := CollectLabels(c, tm, seed)
			if err != nil {
				t.Fatal(err)
			}
			want[mode], wantData[mode] = lb, lb.Dataset(tm)
		}
		for _, workers := range []int{0, 1} {
			for _, firstOn := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/workers=%d/firstOn=%v", m.Name, workers, firstOn), func(t *testing.T) {
					restore := par.SetLimit(workers)
					defer restore()
					var pair [2]*sim.Timer
					pair[0], pair[1] = sim.NewTimerPair(cfg)
					order := []int{0, 1}
					if firstOn {
						order = []int{1, 0}
					}
					for _, mode := range order {
						lb, err := CollectLabels(c, pair[mode], seed)
						if err != nil {
							t.Fatal(err)
						}
						if len(lb.Order) != len(want[mode].Order) {
							t.Fatalf("mode %d: %d labels, lone timer %d", mode, len(lb.Order), len(want[mode].Order))
						}
						for i, got := range lb.Order {
							w := want[mode].Order[i]
							if got.Loop != w.Loop || got.Benchmark != w.Benchmark || got.Cycles != w.Cycles ||
								got.Best != w.Best || got.Usable != w.Usable || got.Kept != w.Kept {
								t.Fatalf("mode %d label %d: pair %+v, lone timer %+v", mode, i, got, w)
							}
						}
						if d := lb.Dataset(pair[mode]); !reflect.DeepEqual(d, wantData[mode]) {
							t.Fatalf("mode %d: the pair's dataset differs from the lone timer's", mode)
						}
					}
				})
			}
		}
	}
}
