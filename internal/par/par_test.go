package par

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"metaopt/internal/faults"
)

func TestForEachCoversAllIndices(t *testing.T) {
	for _, w := range []int{1, 2, 7} {
		restore := SetLimit(w)
		got := make([]int, 100)
		if err := ForEach(len(got), func(i int) error {
			got[i] = i + 1
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != i+1 {
				t.Fatalf("limit %d: index %d not visited (got %d)", w, i, v)
			}
		}
		restore()
	}
}

func TestForEachReturnsLowestIndexError(t *testing.T) {
	restore := SetLimit(4)
	defer restore()
	wantErr := errors.New("boom-3")
	err := ForEach(10, func(i int) error {
		if i == 3 || i == 7 {
			return fmt.Errorf("boom-%d", i)
		}
		return nil
	})
	if err == nil || err.Error() != wantErr.Error() {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
}

func TestForEachWorkerIDsAreBounded(t *testing.T) {
	restore := SetLimit(3)
	defer restore()
	n := 50
	var bad atomic.Int32
	if err := ForEachWorker(n, func(w, i int) error {
		if w < 0 || w >= Workers(n) {
			bad.Add(1)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if bad.Load() != 0 {
		t.Fatalf("%d calls saw an out-of-range worker id", bad.Load())
	}
}

// TestForEachPanicIsolation: a panicking item fails only itself, not the
// pool. The stage reports the panic as an indexed error — serial mode stops
// there exactly like a serial loop, parallel mode still drains the rest —
// and the pool survives for the next stage.
func TestForEachPanicIsolation(t *testing.T) {
	for _, tc := range []struct {
		limit       int
		wantVisited int32
	}{
		{limit: 1, wantVisited: 5},  // serial: stops at the failing index
		{limit: 4, wantVisited: 19}, // parallel: workers drain everything
	} {
		restore := SetLimit(tc.limit)
		panicsBefore := mPanics.Value()
		var visited atomic.Int32
		err := ForEach(20, func(i int) error {
			if i == 5 {
				panic(fmt.Sprintf("item %d exploded", i))
			}
			visited.Add(1)
			return nil
		})
		w := tc.limit
		var pe *faults.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("limit %d: err = %v, want *faults.PanicError", w, err)
		}
		if !strings.Contains(pe.Error(), "item 5 exploded") || !strings.Contains(pe.Error(), "goroutine") {
			t.Errorf("limit %d: PanicError missing value or stack:\n%s", w, pe.Error())
		}
		if got := visited.Load(); got != tc.wantVisited {
			t.Errorf("limit %d: %d healthy items ran, want %d", w, got, tc.wantVisited)
		}
		if mPanics.Value() != panicsBefore+1 {
			t.Errorf("limit %d: par.panics moved %d, want 1", w, mPanics.Value()-panicsBefore)
		}
		// The pool is still fully usable after a panic.
		if err := ForEach(8, func(int) error { return nil }); err != nil {
			t.Fatalf("limit %d: pool unusable after panic: %v", w, err)
		}
		restore()
	}
}

// TestForEachPanicLowestIndexWins: panics report in index order exactly
// like errors, preserving the bit-identical-to-serial contract.
func TestForEachPanicLowestIndexWins(t *testing.T) {
	restore := SetLimit(4)
	defer restore()
	err := ForEach(10, func(i int) error {
		if i == 2 {
			panic("first")
		}
		if i == 8 {
			panic("second")
		}
		return nil
	})
	var pe *faults.PanicError
	if !errors.As(err, &pe) || pe.Value != "first" {
		t.Fatalf("err = %v, want panic %q from index 2", err, "first")
	}
}

// TestForEachInjectedFault: the "par.item" fault site feeds both error and
// panic kinds through the same containment path.
func TestForEachInjectedFault(t *testing.T) {
	restore := SetLimit(2)
	defer restore()
	faults.MustInstall(faults.Spec{Site: "par.item", Kind: faults.KindError, Nth: 3})
	defer faults.Reset()
	err := ForEach(6, func(int) error { return nil })
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("err = %v, want injected", err)
	}
	faults.Reset()
	faults.MustInstall(faults.Spec{Site: "par.item", Kind: faults.KindPanic, Nth: 2})
	err = ForEach(6, func(int) error { return nil })
	var pe *faults.PanicError
	if !errors.As(err, &pe) || !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("err = %v, want injected PanicError", err)
	}
}

func TestWorkersClamps(t *testing.T) {
	restore := SetLimit(8)
	defer restore()
	if got := Workers(3); got != 3 {
		t.Fatalf("Workers(3) = %d, want 3", got)
	}
	if got := Workers(0); got != 1 {
		t.Fatalf("Workers(0) = %d, want 1", got)
	}
	restore()
	restore2 := SetLimit(1)
	defer restore2()
	if got := Workers(100); got != 1 {
		t.Fatalf("Workers(100) at limit 1 = %d, want 1", got)
	}
}

// TestForEachWorkerQuiet: the quiet pool covers every index without moving
// the stage or item counters, skips the "par.item" fault site, and
// re-raises a panicking item in the caller's goroutine as the lowest
// panicking index's PanicError.
func TestForEachWorkerQuiet(t *testing.T) {
	restore := SetLimit(3)
	defer restore()
	faults.MustInstall(faults.Spec{Site: "par.item", Kind: faults.KindPanic, Nth: 1})
	defer faults.Reset()
	stages, items := mStages.Value(), mItems.Value()
	got := make([]int, 50)
	ForEachWorkerQuiet(len(got), func(_, i int) { got[i] = i + 1 })
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("index %d not visited (got %d)", i, v)
		}
	}
	if mStages.Value() != stages || mItems.Value() != items {
		t.Fatalf("par.stages moved %d, par.items_processed moved %d, want 0", mStages.Value()-stages, mItems.Value()-items)
	}
	r := func() (r any) {
		defer func() { r = recover() }()
		ForEachWorkerQuiet(10, func(_, i int) {
			if i == 2 {
				panic("first")
			}
			if i == 8 {
				panic("second")
			}
		})
		return nil
	}()
	if pe, ok := r.(*faults.PanicError); !ok || pe.Value != "first" {
		t.Fatalf("recovered %v, want the PanicError of index 2", r)
	}
}

// TestForEachWorkerQuietInOrder: every item waits for the item before it,
// which completes only if items are handed out in ascending order and no
// worker takes a new item before finishing its last — the contract
// linalg.NewCholesky's strips rely on.
func TestForEachWorkerQuietInOrder(t *testing.T) {
	for _, w := range []int{1, 2, 3} {
		restore := SetLimit(w)
		done := make([]chan struct{}, 40)
		for i := range done {
			done[i] = make(chan struct{})
		}
		ForEachWorkerQuiet(len(done), func(_, i int) {
			defer close(done[i])
			if i > 0 {
				<-done[i-1]
			}
		})
		restore()
	}
}
