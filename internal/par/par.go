// Package par is the shared bounded worker pool behind every parallel
// stage of the evaluation pipeline: label collection, leave-one-out folds,
// greedy feature-selection scoring, and the per-benchmark speedup folds.
// Work is indexed, results are written by index, and errors are reported in
// index order, so a parallel pass is bit-identical to a serial one — the
// pool changes wall-clock time, never output.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"metaopt/internal/faults"
	"metaopt/internal/obs"
)

// Pool telemetry: every stage (one ForEachWorker call) records how many
// items it processed over how many workers and how busy each worker was;
// per-item latency feeds a shared histogram. All of it is counter/timestamp
// work outside the items themselves, so output stays bit-identical.
var (
	mItems     = obs.C("par.items_processed")
	mStages    = obs.C("par.stages")
	mPanics    = obs.C("par.panics")
	mPoolWidth = obs.G("par.pool_width")
	hItemNS    = obs.H("par.item_ns", obs.ExpBounds(1_000, 4, 16)) // 1µs .. ~4.3s
)

// limit overrides the pool width when positive; 0 means GOMAXPROCS.
var limit atomic.Int32

// Limit returns the configured pool width: GOMAXPROCS by default, or the
// last SetLimit value.
func Limit() int {
	if n := limit.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// SetLimit overrides the pool width (1 forces every parallel stage to run
// serially) and returns a function restoring the previous setting. It is
// meant for tests, benchmarks, and command-line flags, not for concurrent
// use while a parallel stage is in flight.
func SetLimit(n int) (restore func()) {
	prev := limit.Swap(int32(n))
	return func() { limit.Store(prev) }
}

// Workers returns the number of workers a stage with n items will use.
func Workers(n int) int {
	w := Limit()
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// ForEach runs fn(i) for every i in [0, n) across the pool. fn must write
// its result into a caller-owned slot at index i; ForEach returns the error
// of the lowest failing index (the same error a serial loop would hit
// first).
func ForEach(n int, fn func(i int) error) error {
	return ForEachWorker(n, func(_, i int) error { return fn(i) })
}

// ForEachWorker is ForEach with a worker id in [0, Workers(n)) passed to
// fn, so callers can maintain per-worker scratch buffers (fold datasets,
// projection slabs) without locking.
//
// A panic in fn fails only that item: the worker recovers it into a
// *faults.PanicError carrying the panic value and stack, counts it on
// "par.panics", and keeps draining. The pool itself never dies, and error
// reporting stays index-ordered, so a panicking item surfaces exactly like
// an erroring one.
func ForEachWorker(n int, fn func(worker, i int) error) error {
	w := Workers(n)
	return run(n, w, func(wk, i int) error {
		if err := faults.Check("par.item"); err != nil {
			return err
		}
		return fn(wk, i)
	}, beginStage(n, w))
}

// ForEachWorkerQuiet is ForEachWorker for items that cannot fail, without
// telemetry or the "par.item" fault site: it records no stage and counts
// no items, so a kernel the pipeline calls hundreds of times (the linalg
// factorizations, one pass per call) leaves the run's stage log and pool
// counters as they were. Items are handed out in ascending index order and
// a worker takes its next item only after finishing the last, so an item
// may block until a lower-indexed item is done. A panic in fn is contained
// as in ForEachWorker, then re-raised in the caller's goroutine as the
// *faults.PanicError of the lowest panicking index once the pool drains.
func ForEachWorkerQuiet(n int, fn func(worker, i int)) {
	err := run(n, Workers(n), func(wk, i int) error {
		fn(wk, i)
		return nil
	}, &stage{})
	if err != nil {
		panic(err)
	}
}

// run drains [0, n) over w workers, reporting to st.
func run(n, w int, fn func(worker, i int) error, st *stage) error {
	if w <= 1 {
		for i := 0; i < n; i++ {
			t0 := time.Now()
			err := safeCall(fn, 0, i)
			st.item(0, time.Since(t0))
			if err != nil {
				st.end()
				return err
			}
		}
		st.end()
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for wk := 0; wk < w; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				t0 := time.Now()
				errs[i] = safeCall(fn, wk, i)
				st.item(wk, time.Since(t0))
			}
		}(wk)
	}
	wg.Wait()
	st.end()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// safeCall runs one item with panic containment: a panic (real or injected
// at the "par.item" fault site) becomes a *faults.PanicError instead of
// tearing down the pool.
func safeCall(fn func(worker, i int) error, wk, i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			mPanics.Inc()
			err = faults.NewPanicError(r)
		}
	}()
	return fn(wk, i)
}

// stage accumulates telemetry for one ForEachWorker call. Each worker owns
// its busy slot, so no synchronization is needed beyond the pool's own
// WaitGroup; the shared histogram and counters are atomic.
type stage struct {
	name    string
	items   int
	workers int
	start   time.Time
	busy    []time.Duration
	on      bool
}

func beginStage(n, w int) *stage {
	if !obs.Enabled() {
		return &stage{}
	}
	mStages.Inc()
	mPoolWidth.Set(int64(w))
	return &stage{
		name:    obs.CurrentName(),
		items:   n,
		workers: w,
		start:   time.Now(),
		busy:    make([]time.Duration, w),
		on:      true,
	}
}

func (s *stage) item(wk int, d time.Duration) {
	if !s.on {
		return
	}
	s.busy[wk] += d
	mItems.Inc()
	hItemNS.Observe(d.Nanoseconds())
}

func (s *stage) end() {
	if !s.on {
		return
	}
	var total time.Duration
	for _, b := range s.busy {
		total += b
	}
	obs.RecordStage(obs.StageStats{
		Name:      s.name,
		Items:     s.items,
		Workers:   s.workers,
		Wall:      time.Since(s.start),
		Busy:      s.busy,
		BusyTotal: total,
	})
}
