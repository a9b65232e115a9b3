// Package sim is the timing substrate standing in for the paper's 1.3 GHz
// Itanium 2: it compiles a loop at a given unroll factor (unroll + cleanup,
// dependence analysis, list scheduling or modulo scheduling, register
// pressure, I-cache model) and reports the cycles the loop consumes in a
// program run. A measurement layer reproduces the paper's instrumentation
// methodology: repeated noisy runs, median aggregation, and the 50 000-cycle
// floor below which loops are considered too noisy to train on.
package sim

import (
	"fmt"
	"math/rand"
	"sync"

	"metaopt/internal/analysis"
	"metaopt/internal/ir"
	"metaopt/internal/machine"
	"metaopt/internal/obs"
	"metaopt/internal/regalloc"
	"metaopt/internal/sched"
	"metaopt/internal/swp"
	"metaopt/internal/transform"
)

// Compile and measurement telemetry. A Timer prices each (loop, unroll)
// pair at most once, so misses count the (loop, unroll, mode) prices
// computed and hits count every other lookup, however the workers
// interleave.
var (
	mCompileHits   = obs.C("sim.compile_cache.hits")
	mCompileMisses = obs.C("sim.compile_cache.misses")
	mSchedules     = obs.C("sim.schedules_built")
	mMeasurements  = obs.C("sim.measurements")
	mCycles        = obs.C("sim.cycles_simulated")
)

// Config selects the compilation mode and measurement behaviour.
type Config struct {
	Mach *machine.Desc

	// SWP enables software pipelining (the paper's second experiment).
	// Loops with side exits or calls fall back to list scheduling, as in
	// ORC.
	SWP bool

	// Runs is how many times each measurement is repeated (paper: 30).
	Runs int

	// Noise is the relative standard deviation of multiplicative
	// measurement noise. Zero gives exact cycle counts.
	Noise float64

	// MinCycles is the instrumentation floor: loops running for fewer
	// cycles are too noisy to label (paper: 50 000).
	MinCycles int64

	// BiasNoise is the relative standard deviation of a systematic
	// per-measurement bias (operating-system and placement effects that an
	// entire 30-run session shares). Unlike Noise it is not suppressed by
	// taking the median, so it directly perturbs labels whose factors are
	// near ties.
	BiasNoise float64

	// ContextVar is the strength of hidden per-loop program context: real
	// loops run inside programs whose data-cache residency and
	// instruction-cache pressure the compiler's static features cannot
	// see. Each loop gets deterministic hidden factors scaling its memory
	// latency and code-size penalties; this bounds achievable prediction
	// accuracy, as on real hardware. Zero disables it.
	ContextVar float64
}

// DefaultConfig mirrors the paper's methodology on the default machine.
func DefaultConfig() *Config {
	return &Config{
		Mach:       machine.Itanium2(),
		Runs:       30,
		Noise:      0.03,
		BiasNoise:  0.02,
		MinCycles:  50_000,
		ContextVar: 0.55,
	}
}

// CompileStats describes one compiled loop variant.
type CompileStats struct {
	Unroll      int
	BodyOps     int
	CodeBytes   int
	Period      float64 // steady-state cycles per source iteration
	II          int     // SWP only
	Stages      int     // SWP only
	SpillCycles int
	Pipelined   bool
}

// Timer compiles and times loops, keeping one record per loop: label
// collection and the speedup folds re-time the same (loop, unroll) pairs
// many times. A Timer is safe for concurrent use, so the whole evaluation
// pipeline shares one Timer (and one compilation of the corpus) across the
// worker pool. The two Timers of a pair (NewTimerPair) share their records
// too, so one compile prices a (loop, unroll) pair in both SWP modes. Cfg
// must not change once the Timer is made.
type Timer struct {
	Cfg *Config

	recs *records
	slot int // this Timer's mode in recs.modes and in each record
}

// records holds the loop records of one Timer, or of both Timers of a
// pair, and the SWP mode of each record slot: the Timer's own mode, or
// off and on.
type records struct {
	modes []bool

	mu    sync.Mutex
	loops map[*ir.Loop]*loopRecord
}

// loopRecord is what its Timers know about one loop, filled in on demand:
// the input validation, the rolled body's recurrence ratio and remainder
// cost, which every factor and mode shares, and the price at each factor
// in each mode. mu is held while a missing part is computed, so concurrent
// callers wait for that one computation instead of repeating it. A mode
// whose compile fails or panics stores nothing; a validation error is
// stored, since the loop is invalid at every factor.
type loopRecord struct {
	mu sync.Mutex

	validated   bool
	validateErr error

	hasRecurrence bool
	rn, rd        int

	hasRemainder bool
	remainder    float64

	compiles [][transform.MaxFactor + 1]compiled // by mode slot, then factor
}

type compiled struct {
	perEntry float64 // cycles per loop entry, deterministic
	stats    CompileStats
	done     bool
}

// NewTimer returns a Timer for the given configuration.
func NewTimer(cfg *Config) *Timer {
	return &Timer{Cfg: cfg, recs: newRecords(cfg.SWP)}
}

// NewTimerPair returns two Timers for cfg, one with software pipelining off
// and one with it on, that share one record per loop: the first lookup of
// a (loop, unroll) pair on either Timer unrolls the loop and builds its
// dependence graph once, and prices both modes from them.
func NewTimerPair(cfg *Config) (off, on *Timer) {
	recs := newRecords(false, true)
	offCfg, onCfg := *cfg, *cfg
	offCfg.SWP, onCfg.SWP = false, true
	return &Timer{Cfg: &offCfg, recs: recs}, &Timer{Cfg: &onCfg, recs: recs, slot: 1}
}

func newRecords(modes ...bool) *records {
	return &records{modes: modes, loops: map[*ir.Loop]*loopRecord{}}
}

// Cycles returns the deterministic total cycles loop l consumes per program
// run when compiled with unroll factor u.
func (t *Timer) Cycles(l *ir.Loop, u int) (int64, error) {
	c, err := t.compile(l, u)
	if err != nil {
		return 0, err
	}
	return int64(c.perEntry * float64(l.Entries)), nil
}

// Stats returns the compilation statistics for (l, u).
func (t *Timer) Stats(l *ir.Loop, u int) (CompileStats, error) {
	c, err := t.compile(l, u)
	if err != nil {
		return CompileStats{}, err
	}
	return c.stats, nil
}

// record returns l's record, creating it on first sight of the loop.
func (t *Timer) record(l *ir.Loop) *loopRecord {
	rs := t.recs
	rs.mu.Lock()
	defer rs.mu.Unlock()
	r, ok := rs.loops[l]
	if !ok {
		r = &loopRecord{compiles: make([][transform.MaxFactor + 1]compiled, len(rs.modes))}
		rs.loops[l] = r
	}
	return r
}

// compile returns the price of (l, u) in t's mode, compiling it on first
// use.
func (t *Timer) compile(l *ir.Loop, u int) (compiled, error) {
	if u < 1 || u > transform.MaxFactor {
		return compiled{}, fmt.Errorf("sim: unroll factor %d out of range [1,%d]", u, transform.MaxFactor)
	}
	rec := t.record(l)
	rec.mu.Lock()
	defer rec.mu.Unlock()
	c := &rec.compiles[t.slot][u]
	if c.done {
		mCompileHits.Inc()
		return *c, nil
	}
	// An error may come from another mode only once this one is priced.
	if err := t.compileLoop(l, u, rec); err != nil && !c.done {
		return compiled{}, err
	}
	return *c, nil
}

// validate runs l.Validate once per loop, whatever factor asks first.
// The caller holds r.mu.
func (r *loopRecord) validate(l *ir.Loop) error {
	if !r.validated {
		if err := l.Validate(); err != nil {
			r.validateErr = fmt.Errorf("transform: input: %w", err)
		}
		r.validated = true
	}
	return r.validateErr
}

// recurrence returns the rolled body's recurrence ratio excluding the
// induction update, computed once per loop and shared by all factors.
// The caller holds r.mu.
func (r *loopRecord) recurrence(l *ir.Loop, m *machine.Desc) (rn, rd int) {
	if !r.hasRecurrence {
		rg := analysis.Build(l.Clone(), m)
		r.rn, r.rd = rg.RecurrenceRatioExcluding(func(op *ir.Op) bool {
			return op.Code == ir.OpAdd && selfCarried(op)
		})
		r.hasRecurrence = true
	}
	return r.rn, r.rd
}

// workspace is what one compile builds and discards: the unrolled loop,
// its dependence graph, its list schedule and the scheduler's scratch, and
// its register allocation. Workspaces are pooled across (loop, u)
// compiles, as swp pools its scratch: a compile rebuilds one in place and
// returns it once the variant is priced, since nothing the compile returns
// or caches refers into it.
type workspace struct {
	loop  ir.Loop
	graph analysis.Graph
	sched sched.Scheduler
	list  sched.Schedule
	alloc regalloc.Result
}

var workspacePool = sync.Pool{New: func() any { return new(workspace) }}

// unroll borrows a workspace holding the validated loop l unrolled by u
// and its dependence graph; return it with release.
func (t *Timer) unroll(l *ir.Loop, u int) (*workspace, error) {
	w := workspacePool.Get().(*workspace)
	if _, err := transform.UnrollInto(&w.loop, l, u); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	w.graph.Reset(&w.loop, t.Cfg.Mach)
	return w, nil
}

// release returns w to the pool, first dropping the graph's pointers into
// the loop the next borrower rebuilds.
func (w *workspace) release() {
	w.graph.Loop, w.graph.Ops = nil, nil
	workspacePool.Put(w)
}

// compileLoop builds the unrolled variant of l at factor u once and prices
// one loop entry in every mode of rec not yet priced at u, taking the
// loop-level parts from rec. Software pipelining on prices a body with an
// early exit or a call as list scheduling does, so such a body is
// scheduled once for both modes. A mode that fails stores nothing and
// leaves the modes before it priced. The caller holds rec.mu.
func (t *Timer) compileLoop(l *ir.Loop, u int, rec *loopRecord) error {
	if err := rec.validate(l); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	w, err := t.unroll(l, u)
	if err != nil {
		return err
	}
	defer w.release()
	canPipeline := !w.loop.EarlyExit && !hasCalls(&w.loop)
	var list compiled // the unpipelined price, shared by every mode that uses it
	for slot, swpOn := range t.recs.modes {
		c := &rec.compiles[slot][u]
		if c.done {
			continue
		}
		if swpOn && canPipeline {
			*c, err = t.price(l, u, w, rec, true)
		} else {
			if !list.done {
				list, err = t.price(l, u, w, rec, false)
			}
			*c = list
		}
		if err != nil {
			return err
		}
		mCompileMisses.Inc()
	}
	return nil
}

// price schedules the unrolled body in w, modulo scheduled when pipelined
// holds and list scheduled otherwise, and prices one loop entry. The
// caller holds rec.mu.
func (t *Timer) price(l *ir.Loop, u int, w *workspace, rec *loopRecord, pipelined bool) (compiled, error) {
	cfg := t.Cfg
	unrolled, g, m := &w.loop, &w.graph, cfg.Mach

	var bodyCycles float64 // steady-state cycles per unrolled body
	var fillDrain float64  // per-entry pipeline fill/drain
	stats := CompileStats{Unroll: u, BodyOps: len(unrolled.Body)}

	mSchedules.Inc()
	if pipelined {
		mii := pipelineMII(l, g, u, rec, m)
		r, err := swp.Schedule(g, mii)
		if err != nil {
			return compiled{}, fmt.Errorf("sim: %w", err)
		}
		bodyCycles = float64(r.II + r.SpillCycles)
		fillDrain = float64(2 * (r.Stages - 1) * r.II)
		stats.II = r.II
		stats.Stages = r.Stages
		stats.SpillCycles = r.SpillCycles
		stats.Pipelined = true
		// Kernel plus prologue/epilogue code.
		stats.CodeBytes = m.CodeBytes(len(unrolled.Body) * (1 + r.Stages))
	} else {
		s := w.sched.ListInto(g, &w.list)
		ra := regalloc.RunInto(&w.alloc, s)
		bodyCycles = float64(s.Period + ra.SpillCycles)
		stats.SpillCycles = ra.SpillCycles
		stats.CodeBytes = m.CodeBytes(len(unrolled.Body) + ra.StoreOps + ra.ReloadOps)
	}

	// Replicated side exits cost extra branch resolution per body.
	if unrolled.EarlyExit && u > 1 {
		bodyCycles += float64((u - 1) * m.EarlyExitOverhead)
	}

	// Hidden program context (see Config.ContextVar): deterministic
	// per-loop factors modeling the surrounding program's data-cache
	// behaviour, instruction-cache pressure and branch-predictor state.
	// They tilt the unrolling trade-off in ways no static loop feature can
	// observe.
	hMem, hIC, hBr := contextFactors(l)
	v := cfg.ContextVar
	if v > 0 {
		// Contended data cache: issuing many loads in parallel from a big
		// unrolled body thrashes; cost grows with the unroll factor.
		loads := 0
		for _, op := range unrolled.Body {
			if op.Code == ir.OpLoad {
				loads++
			}
		}
		bodyCycles += v * hMem * 2.2 * float64(loads) * float64(u-1) / 7
		// Costly back edges (cold predictor, deep frontend): rewards
		// larger bodies.
		bodyCycles += v * hBr * 2
	}

	// Instruction-cache model: cold misses on entry plus a steady-state
	// capacity penalty once the loop outgrows its share of L1I.
	const lineBytes = 64
	lines := (stats.CodeBytes + lineBytes - 1) / lineBytes
	icScale := 1 + 3*v*hIC
	coldPenalty := icScale * float64(lines*m.L1IMissCycles) / 2
	share := m.L1IBytes / 4
	var capacityPerBody float64
	if stats.CodeBytes > share {
		capacityPerBody = icScale * float64(m.L1IMissCycles) * float64(stats.CodeBytes-share) / float64(m.L1IBytes)
	}
	bodyCycles += capacityPerBody

	trip := l.RuntimeTrip
	if trip < 1 {
		trip = 1
	}
	var perEntry float64
	const setup = 6.0 // loop preconditioning: counted once per entry
	switch {
	case unrolled.EarlyExit:
		// The exit can fire mid-body: the final body runs to completion,
		// wasting up to u-1 iterations of work.
		bodies := (trip + u - 1) / u
		perEntry = float64(bodies)*bodyCycles + setup
	default:
		bodies := trip / u
		rem := trip % u
		perEntry = float64(bodies)*bodyCycles + fillDrain + setup
		if rem > 0 {
			remCycles, err := t.rolledRemainder(l, rec)
			if err != nil {
				return compiled{}, err
			}
			perEntry += float64(rem)*remCycles + 2 // re-dispatch into the tail loop
		}
		if u > 1 && l.TripCount < 0 {
			perEntry += 2 // dynamic trip test guarding the unrolled body
		}
	}
	perEntry += coldPenalty

	stats.Period = perEntry / float64(trip)
	return compiled{perEntry: perEntry, stats: stats, done: true}, nil
}

// rolledRemainder prices one iteration of the rolled loop (used for the
// tail of a trip count not divisible by the unroll factor). Remainder
// iterations always run unpipelined. The price is kept in rec: the same
// rolled tail serves every unroll factor 2..8 in both modes, so pricing it
// once removes the redundant unroll+analysis+schedule+regalloc passes. The
// caller holds rec.mu and has validated l.
func (t *Timer) rolledRemainder(l *ir.Loop, rec *loopRecord) (float64, error) {
	if rec.hasRemainder {
		return rec.remainder, nil
	}
	w, err := t.unroll(l, 1)
	if err != nil {
		return 0, err
	}
	defer w.release()
	s := w.sched.ListInto(&w.graph, &w.list)
	ra := regalloc.RunInto(&w.alloc, s)
	mSchedules.Inc()
	rec.remainder, rec.hasRemainder = float64(s.Period+ra.SpillCycles), true
	return rec.remainder, nil
}

// pipelineMII estimates the modulo-scheduling lower bound for the unrolled
// body: the exact resource bound plus the rolled loop's recurrence ratio
// scaled by the unroll factor (the induction-variable update is excluded —
// unrolling folds it). The recurrence ratio comes from the loop's record,
// so only the first factor pays the rolled-body analysis. In bodies that
// are not alias-free the estimate can fall far below the unrolled body's
// own recurrence bound: memory-ordering edges between the unrolled
// copies form longer recurrences. swp.Schedule corrects for this exactly,
// by skipping the IIs those recurrences rule out.
func pipelineMII(rolled *ir.Loop, g *analysis.Graph, u int, rec *loopRecord, m *machine.Desc) int {
	num, den := g.ResMII()
	mii := (num + den - 1) / den
	rn, rd := rec.recurrence(rolled, m)
	if rd > 0 && rn > 0 {
		if r := (u*rn + rd - 1) / rd; r > mii {
			mii = r
		}
	}
	if mii < 1 {
		mii = 1
	}
	return mii
}

func selfCarried(op *ir.Op) bool {
	for _, a := range op.Args {
		if a.Op == op && a.Dist == 1 {
			return true
		}
	}
	return false
}

func hasCalls(l *ir.Loop) bool {
	return l.Count(func(o *ir.Op) bool { return o.Code == ir.OpCall }) > 0
}

// contextFactors derives three deterministic uniforms in [0,1) from the
// loop's identity — its hidden execution context.
func contextFactors(l *ir.Loop) (hMem, hIC, hBr float64) {
	var h uint64 = 14695981039346656037
	for _, s := range []string{l.Benchmark, "/", l.Name} {
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * 1099511628211
		}
	}
	next := func() float64 {
		h += 0x9e3779b97f4a7c15
		z := h
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		return float64(z>>11) / float64(1<<53)
	}
	return next(), next(), next()
}

// MeasureScaled runs the paper's instrumentation protocol for one (loop,
// unroll) pair: cfg.Runs noisy executions, reported as the median. The rng
// makes noise reproducible; measurements from the same rng sequence are
// independent draws. The configured noise is multiplied by scale — some
// benchmarks are noisier than others (the paper's mesa/mcf/crafty).
func (t *Timer) MeasureScaled(l *ir.Loop, u int, rng *rand.Rand, scale float64) (int64, error) {
	base, err := t.Cycles(l, u)
	if err != nil {
		return 0, err
	}
	mMeasurements.Inc()
	runs := t.Cfg.Runs
	noise := t.Cfg.Noise * scale
	if runs < 1 || (noise == 0 && t.Cfg.BiasNoise == 0) {
		mCycles.Add(base)
		return base, nil
	}
	// The whole measurement session shares one systematic bias; the
	// per-run noise on top of it is mostly removed by the median.
	bias := 1 + t.Cfg.BiasNoise*scale*rng.NormFloat64()
	if bias < 0.5 {
		bias = 0.5
	}
	var stack [64]int64
	samples := stack[:0]
	if runs > len(stack) {
		samples = make([]int64, 0, runs)
	}
	fbase := float64(base)
	for i := 0; i < runs; i++ {
		f := bias * (1 + noise*rng.NormFloat64())
		if f < 0.25 {
			f = 0.25
		}
		samples = append(samples, int64(fbase*f))
	}
	med := selectKth(samples, runs/2)
	mCycles.Add(med)
	return med, nil
}

// selectKth returns the k-th smallest element (0-based) by in-place Hoare
// quickselect — the median of 30 runs needs a selection, not the full
// sort+closure allocation this hot path used to pay 8 factors × 2,500
// loops × every measurement session.
func selectKth(s []int64, k int) int64 {
	lo, hi := 0, len(s)-1
	for lo < hi {
		p := s[(lo+hi)/2]
		i, j := lo, hi
		for i <= j {
			for s[i] < p {
				i++
			}
			for s[j] > p {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return s[k]
		}
	}
	return s[k]
}

// MeasureAll measures a loop at every unroll factor 1..MaxFactor, in
// order and with the noise scaled by scale, and reports whether the loop
// meets the instrumentation floor at its rolled setting.
func (t *Timer) MeasureAll(l *ir.Loop, rng *rand.Rand, scale float64) (cycles [transform.MaxFactor + 1]int64, usable bool, err error) {
	for u := 1; u <= transform.MaxFactor; u++ {
		c, err := t.MeasureScaled(l, u, rng, scale)
		if err != nil {
			return cycles, false, err
		}
		cycles[u] = c
	}
	return cycles, cycles[1] >= t.Cfg.MinCycles, nil
}
