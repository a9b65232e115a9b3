package sim

import (
	"sync"
	"testing"

	"metaopt/internal/ir"
	"metaopt/internal/obs"
	"metaopt/internal/transform"
)

// TestTimerSharedCacheConcurrent has 16 goroutines visit every (loop,
// unroll) pair of one Timer at once (run under -race in CI). Every answer
// must match a serially filled Timer, and the loop records must compile
// each pair exactly once: 24 compile misses and as many schedules built
// as the serial fill. The goroutines leave a common start and visit the
// pairs in the same order, so they keep arriving at a pair another one is
// still compiling; each of several rounds fills a fresh Timer.
func TestTimerSharedCacheConcurrent(t *testing.T) {
	srcs := []string{
		`kernel a lang=c {
			param double s;
			double x[], y[];
			noalias;
			for i = 0 .. 4096 { y[i] = y[i] + s * x[i]; }
		}`,
		`kernel b lang=c {
			double x[], y[];
			noalias;
			for i = 0 .. 999 { y[i] = x[i] * x[i]; }
		}`,
		`kernel c lang=c {
			double acc;
			double x[];
			for i = 0 .. 2047 { acc = acc + x[i]; }
		}`,
	}
	var loops []*ir.Loop
	for _, src := range srcs {
		loops = append(loops, loop(t, src))
	}

	cfg := DefaultConfig()
	cfg.Noise = 0
	cfg.BiasNoise = 0
	obs.Reset()
	ref := NewTimer(cfg)
	want := map[[2]int]int64{}
	for li, l := range loops {
		for u := 1; u <= transform.MaxFactor; u++ {
			c, err := ref.Cycles(l, u)
			if err != nil {
				t.Fatal(err)
			}
			want[[2]int{li, u}] = c
		}
	}
	serialSchedules := mSchedules.Value()

	const rounds, goroutines = 10, 16
	for round := 0; round < rounds; round++ {
		obs.Reset()
		shared := NewTimer(cfg)
		start := make(chan struct{})
		var wg sync.WaitGroup
		errs := make([]error, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				for li, l := range loops {
					for u := 1; u <= transform.MaxFactor; u++ {
						c, err := shared.Cycles(l, u)
						if err != nil {
							errs[g] = err
							return
						}
						if c != want[[2]int{li, u}] {
							t.Errorf("goroutine %d: loop %d u=%d: got %d, want %d",
								g, li, u, c, want[[2]int{li, u}])
							return
						}
					}
				}
			}(g)
		}
		close(start)
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		if got, wantMisses := mCompileMisses.Value(), int64(len(loops)*transform.MaxFactor); got != wantMisses {
			t.Fatalf("round %d: sim.compile_cache.misses = %d, want %d (one compile per pair)", round, got, wantMisses)
		}
		if got := mSchedules.Value(); got != serialSchedules {
			t.Fatalf("round %d: sim.schedules_built = %d, serial fill built %d", round, got, serialSchedules)
		}
	}
}

// TestCyclesRejectsOutOfRangeFactor: a factor outside [1, MaxFactor] is
// an error, not a compile.
func TestCyclesRejectsOutOfRangeFactor(t *testing.T) {
	l := loop(t, daxpy)
	tm := exactTimer(false)
	for _, u := range []int{0, transform.MaxFactor + 1} {
		if c, err := tm.Cycles(l, u); err == nil {
			t.Errorf("Cycles(l, %d) = %d, want an error", u, c)
		}
		if _, err := tm.Stats(l, u); err == nil {
			t.Errorf("Stats(l, %d) succeeded, want an error", u)
		}
	}
}

// TestTimerPairConcurrent has 16 goroutines, half on each Timer of a
// pair, visit every (loop, unroll) pair at once (run under -race in CI).
// Every answer must match a lone Timer of the same mode, and the shared
// records must price each (loop, unroll, mode) exactly once: one miss per
// price and as many schedules built as a serial fill of a pair. That fill
// builds fewer schedules than two lone Timers: the early-exit kernel's
// body and every rolled remainder are scheduled once for both modes.
func TestTimerPairConcurrent(t *testing.T) {
	var loops []*ir.Loop
	for _, src := range reuseKernels {
		loops = append(loops, loop(t, src))
	}
	cfg := DefaultConfig()
	cfg.Noise = 0
	cfg.BiasNoise = 0

	type key struct{ li, u, mode int }
	want := map[key]int64{}
	loneSchedules := int64(0)
	for mode, swpOn := range []bool{false, true} {
		obs.Reset()
		lone := exactTimer(swpOn)
		for li, l := range loops {
			for u := 1; u <= transform.MaxFactor; u++ {
				c, err := lone.Cycles(l, u)
				if err != nil {
					t.Fatal(err)
				}
				want[key{li, u, mode}] = c
			}
		}
		loneSchedules += mSchedules.Value()
	}
	obs.Reset()
	off, _ := NewTimerPair(cfg)
	for _, l := range loops {
		for u := 1; u <= transform.MaxFactor; u++ {
			if _, err := off.Cycles(l, u); err != nil {
				t.Fatal(err)
			}
		}
	}
	serialSchedules := mSchedules.Value()
	if serialSchedules >= loneSchedules {
		t.Fatalf("a pair built %d schedules, two lone timers %d", serialSchedules, loneSchedules)
	}

	const rounds, goroutines = 10, 16
	for round := 0; round < rounds; round++ {
		obs.Reset()
		var pair [2]*Timer
		pair[0], pair[1] = NewTimerPair(cfg)
		start := make(chan struct{})
		var wg sync.WaitGroup
		errs := make([]error, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				mode := g % 2
				for li, l := range loops {
					for u := 1; u <= transform.MaxFactor; u++ {
						c, err := pair[mode].Cycles(l, u)
						if err != nil {
							errs[g] = err
							return
						}
						if w := want[key{li, u, mode}]; c != w {
							t.Errorf("goroutine %d: mode %d loop %d u=%d: got %d, want %d", g, mode, li, u, c, w)
							return
						}
					}
				}
			}(g)
		}
		close(start)
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		if got, wantMisses := mCompileMisses.Value(), int64(2*len(loops)*transform.MaxFactor); got != wantMisses {
			t.Fatalf("round %d: sim.compile_cache.misses = %d, want %d (one price per pair and mode)", round, got, wantMisses)
		}
		if got := mSchedules.Value(); got != serialSchedules {
			t.Fatalf("round %d: sim.schedules_built = %d, serial fill built %d", round, got, serialSchedules)
		}
	}
}
