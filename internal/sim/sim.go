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
	"reflect"
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

// Cache and measurement telemetry. Hit/miss accounting is deterministic
// even with racing workers: a miss is counted only by the worker whose
// store wins, so misses equals the number of distinct keys compiled and
// hits equals lookups minus misses. A worker that compiled redundantly
// (lost the store race and adopted the winner's result) counts as a hit
// plus a race — the races counter is the only scheduling-dependent value.
var (
	mCompileHits   = obs.C("sim.compile_cache.hits")
	mCompileMisses = obs.C("sim.compile_cache.misses")
	mCompileRaces  = obs.C("sim.compile_cache.races")
	mRemHits       = obs.C("sim.remainder_cache.hits")
	mRemMisses     = obs.C("sim.remainder_cache.misses")
	mRemRaces      = obs.C("sim.remainder_cache.races")
	mSharedHits    = obs.C("sim.loop_shared.hits")
	mSharedMisses  = obs.C("sim.loop_shared.misses")
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

// cacheShards stripes the compile cache: concurrent workers hash to
// different shards and rarely contend on the same lock.
const cacheShards = 64

// Timer compiles and times loops, caching compilations: label collection
// re-times the same (loop, unroll) pairs many times. A Timer is safe for
// concurrent use — the compile and remainder caches are sharded so the
// whole evaluation pipeline can share one Timer (and one compilation of
// the corpus) across the worker pool.
type Timer struct {
	Cfg    *Config
	shards [cacheShards]compileShard
	rem    [cacheShards]remainderShard
	shared [cacheShards]sharedShard
}

type compileShard struct {
	mu sync.Mutex
	m  map[timerKey]*compiled
}

type remainderShard struct {
	mu sync.Mutex
	m  map[*ir.Loop]float64
}

type sharedShard struct {
	mu sync.Mutex
	m  map[*ir.Loop]*loopShared
}

// loopShared is the per-loop state every unroll factor of the same loop can
// reuse: the one-time input validation and the rolled body's recurrence
// ratio. The eight factor compiles of one loop used to repeat both —
// validation per factor and a full clone+dependence-analysis of the rolled
// body inside pipelineMII per factor.
type loopShared struct {
	validateOnce sync.Once
	validateErr  error

	recOnce sync.Once
	rn, rd  int
}

// validated runs l.Validate exactly once per loop, whatever unroll factor
// asks first.
func (ls *loopShared) validated(l *ir.Loop) error {
	ls.validateOnce.Do(func() {
		if err := l.Validate(); err != nil {
			ls.validateErr = fmt.Errorf("transform: input: %w", err)
		}
	})
	return ls.validateErr
}

// recurrence returns the rolled body's recurrence ratio excluding the
// induction update, computed once per loop and shared by all factors.
func (ls *loopShared) recurrence(l *ir.Loop, m *machine.Desc) (rn, rd int) {
	ls.recOnce.Do(func() {
		rg := analysis.Build(l.Clone(), m)
		ls.rn, ls.rd = rg.RecurrenceRatioExcluding(func(op *ir.Op) bool {
			return op.Code == ir.OpAdd && selfCarried(op)
		})
	})
	return ls.rn, ls.rd
}

type timerKey struct {
	loop *ir.Loop
	u    int
	swp  bool
}

type compiled struct {
	perEntry float64 // cycles per loop entry, deterministic
	stats    CompileStats
}

// NewTimer returns a Timer for the given configuration. Shard maps are
// created lazily under their shard lock, so a short-lived Timer does not
// pay for 2×64 empty maps up front.
func NewTimer(cfg *Config) *Timer {
	return &Timer{Cfg: cfg}
}

// shardOf mixes the loop's identity and the unroll factor into a shard
// index (SplitMix64 finalizer over the pointer bits).
func shardOf(l *ir.Loop, u int) uint32 {
	h := uint64(reflect.ValueOf(l).Pointer()) + uint64(u)*0x9e3779b97f4a7c15
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	h ^= h >> 31
	return uint32(h % cacheShards)
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

// compile returns the cached compilation of (l, u), compiling on a miss.
// Compilation is deterministic, so two workers racing on the same key
// compute identical results; the first store wins and the loser adopts it,
// keeping the cache single-valued. The compile itself runs outside the
// shard lock — it may recurse into the remainder cache, whose key can land
// on the same shard index.
func (t *Timer) compile(l *ir.Loop, u int) (*compiled, error) {
	key := timerKey{l, u, t.Cfg.SWP}
	sh := &t.shards[shardOf(l, u)]
	sh.mu.Lock()
	c, ok := sh.m[key]
	sh.mu.Unlock()
	if ok {
		mCompileHits.Inc()
		return c, nil
	}
	c, err := t.compileLoop(l, u)
	if err != nil {
		return nil, err
	}
	sh.mu.Lock()
	if prev, ok := sh.m[key]; ok {
		c = prev
		sh.mu.Unlock()
		// Lost the store race: the key was compiled exactly once for
		// accounting purposes, so this call is a (redundant) hit.
		mCompileHits.Inc()
		mCompileRaces.Inc()
		return c, nil
	}
	if sh.m == nil {
		sh.m = map[timerKey]*compiled{}
	}
	sh.m[key] = c
	sh.mu.Unlock()
	mCompileMisses.Inc()
	return c, nil
}

// sharedFor returns the per-loop shared compile state, creating it on first
// sight of the loop. The hit/miss counters give the graph-reuse rate: every
// hit is a factor compile that skipped the loop-level analysis work.
func (t *Timer) sharedFor(l *ir.Loop) *loopShared {
	sh := &t.shared[shardOf(l, 0)]
	sh.mu.Lock()
	ls, ok := sh.m[l]
	if !ok {
		if sh.m == nil {
			sh.m = map[*ir.Loop]*loopShared{}
		}
		ls = &loopShared{}
		sh.m[l] = ls
	}
	sh.mu.Unlock()
	if ok {
		mSharedHits.Inc()
	} else {
		mSharedMisses.Inc()
	}
	return ls
}

// compileLoop builds the unrolled variant and prices one loop entry.
func (t *Timer) compileLoop(l *ir.Loop, u int) (*compiled, error) {
	return t.compileLoopShared(l, u, t.sharedFor(l))
}

// workspace is what one compile builds and discards: the unrolled loop,
// its dependence graph and its register allocation. Workspaces are pooled
// across (loop, u) compiles, as sched and swp pool their scratch: a compile
// rebuilds one in place and returns it once the variant is priced, since
// nothing the compile returns or caches refers into it.
type workspace struct {
	loop  ir.Loop
	graph analysis.Graph
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

// compileLoopShared compiles (l, u) with ls carrying the loop-level work
// shared across factors. Passing a fresh, unshared loopShared reproduces the
// old independent-per-factor compile exactly — the bit-identity test relies
// on this.
func (t *Timer) compileLoopShared(l *ir.Loop, u int, ls *loopShared) (*compiled, error) {
	cfg := t.Cfg
	if err := ls.validated(l); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	w, err := t.unroll(l, u)
	if err != nil {
		return nil, err
	}
	defer w.release()
	unrolled, g, m := &w.loop, &w.graph, cfg.Mach

	usePipeline := cfg.SWP && !unrolled.EarlyExit && !hasCalls(unrolled)

	var bodyCycles float64 // steady-state cycles per unrolled body
	var fillDrain float64  // per-entry pipeline fill/drain
	stats := CompileStats{Unroll: u, BodyOps: len(unrolled.Body)}

	mSchedules.Inc()
	if usePipeline {
		mii := pipelineMII(l, g, u, ls, m)
		r, err := swp.Schedule(g, mii)
		if err != nil {
			return nil, fmt.Errorf("sim: %w", err)
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
		s := sched.List(g)
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
			remCycles, err := t.rolledRemainder(l)
			if err != nil {
				return nil, err
			}
			perEntry += float64(rem)*remCycles + 2 // re-dispatch into the tail loop
		}
		if u > 1 && l.TripCount < 0 {
			perEntry += 2 // dynamic trip test guarding the unrolled body
		}
	}
	perEntry += coldPenalty

	stats.Period = perEntry / float64(trip)
	return &compiled{perEntry: perEntry, stats: stats}, nil
}

// rolledRemainder prices one iteration of the rolled loop (used for the
// tail of a trip count not divisible by the unroll factor). Remainder
// iterations always run unpipelined. The schedule is cached per loop: the
// same rolled tail serves every unroll factor 2..8, so pricing it once
// removes seven redundant unroll+analysis+schedule+regalloc passes per
// loop.
func (t *Timer) rolledRemainder(l *ir.Loop) (float64, error) {
	sh := &t.rem[shardOf(l, 0)]
	sh.mu.Lock()
	v, ok := sh.m[l]
	sh.mu.Unlock()
	if ok {
		mRemHits.Inc()
		return v, nil
	}
	// The caller's compile already validated l.
	w, err := t.unroll(l, 1)
	if err != nil {
		return 0, err
	}
	s := sched.List(&w.graph)
	ra := regalloc.RunInto(&w.alloc, s)
	mSchedules.Inc()
	v = float64(s.Period + ra.SpillCycles)
	w.release()
	sh.mu.Lock()
	if _, ok := sh.m[l]; ok {
		v = sh.m[l]
		sh.mu.Unlock()
		mRemHits.Inc()
		mRemRaces.Inc()
		return v, nil
	}
	if sh.m == nil {
		sh.m = map[*ir.Loop]float64{}
	}
	sh.m[l] = v
	sh.mu.Unlock()
	mRemMisses.Inc()
	return v, nil
}

// pipelineMII estimates the modulo-scheduling lower bound for the unrolled
// body: the exact resource bound plus the rolled loop's recurrence ratio
// scaled by the unroll factor (the induction-variable update is excluded —
// unrolling folds it). The recurrence ratio comes from the shared per-loop
// state, so only the first factor pays the rolled-body analysis. In bodies
// that are not alias-free the estimate can fall far below the unrolled
// body's own recurrence bound: memory-ordering edges between the unrolled
// copies form longer recurrences. swp.Schedule corrects for this exactly,
// by skipping the IIs those recurrences rule out.
func pipelineMII(rolled *ir.Loop, g *analysis.Graph, u int, ls *loopShared, m *machine.Desc) int {
	num, den := g.ResMII()
	mii := (num + den - 1) / den
	rn, rd := ls.recurrence(rolled, m)
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

// Measure runs the paper's instrumentation protocol for one (loop, unroll)
// pair: cfg.Runs noisy executions, reported as the median. The rng makes
// noise reproducible; measurements from the same rng sequence are
// independent draws.
func (t *Timer) Measure(l *ir.Loop, u int, rng *rand.Rand) (int64, error) {
	return t.MeasureScaled(l, u, rng, 1)
}

// MeasureScaled measures with the configured noise multiplied by scale —
// some benchmarks are noisier than others (the paper's mesa/mcf/crafty).
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

// MeasureAll measures a loop at every unroll factor 1..MaxFactor and
// reports whether the loop meets the instrumentation floor at its rolled
// setting.
func (t *Timer) MeasureAll(l *ir.Loop, rng *rand.Rand) (cycles [transform.MaxFactor + 1]int64, usable bool, err error) {
	for u := 1; u <= transform.MaxFactor; u++ {
		c, err := t.Measure(l, u, rng)
		if err != nil {
			return cycles, false, err
		}
		cycles[u] = c
	}
	return cycles, cycles[1] >= t.Cfg.MinCycles, nil
}
