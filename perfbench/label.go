package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"metaopt/internal/analysis"
	"metaopt/internal/core"
	"metaopt/internal/experiments"
	"metaopt/internal/ir"
	"metaopt/internal/lang"
	"metaopt/internal/loopgen"
	"metaopt/internal/ml"
	"metaopt/internal/obs"
	"metaopt/internal/regalloc"
	"metaopt/internal/sched"
	"metaopt/internal/sim"
	"metaopt/internal/swp"
	"metaopt/internal/transform"
)

// labelOp is one labeling pass over the corpus in both SWP modes, each
// with a fresh timer, through core.CollectLabels and Labels.Dataset. It
// returns the hash of both datasets.
func labelOp(tr *tracer, op int, c *loopgen.Corpus, cfg experiments.Config) (string, error) {
	root := tr.begin(op, -1, "harness.label_op", false)
	defer tr.end(root)
	h := sha256.New()
	for _, mode := range []string{"off", "on"} {
		sc := sim.DefaultConfig()
		sc.SWP = mode == "on"
		sc.Runs = cfg.Runs
		t := sim.NewTimer(sc)
		var lb *core.Labels
		if err := tr.call(op, root, "sim.label_"+mode, func() (err error) {
			lb, err = core.CollectLabels(c, t, cfg.Seed+100)
			return err
		}); err != nil {
			return "", err
		}
		var d *ml.Dataset
		_ = tr.call(op, root, "features.dataset", func() error { d = lb.Dataset(t); return nil })
		hashDataset(h, d)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// hashDataset feeds every example's name, label, cycles and feature bits
// to h, in dataset order.
func hashDataset(h io.Writer, d *ml.Dataset) {
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(d.Len()))
	for _, e := range d.Examples {
		io.WriteString(h, e.Benchmark+"/"+e.Name+"\x00")
		put(uint64(e.Label))
		for _, c := range e.Cycles {
			put(uint64(c))
		}
		for _, f := range e.Features {
			put(math.Float64bits(f))
		}
	}
}

var labelGoldenPath = filepath.Join(goldenDir, "label.sha256")

// runLabel measures labeling passes over the full-scale corpus.
func runLabel(o *options, r *report) error {
	cfg := experiments.DefaultConfig()
	want := ""
	if raw, err := os.ReadFile(labelGoldenPath); err == nil {
		want = strings.TrimSpace(string(raw))
	} else if !o.regen {
		return fmt.Errorf("golden: %w", err)
	}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	// Set-up is generating the corpus.
	var c *loopgen.Corpus
	setup, err := repeatSetup(5, func() error {
		id := tr.begin(-1, -1, "loopgen.generate", true)
		defer tr.end(id)
		var err error
		c, err = loopgen.Generate(loopgen.Options{Seed: cfg.Seed, LoopsScale: cfg.Scale})
		return err
	})
	if err != nil {
		return err
	}
	r.set("setup_s", setup, "s", 5, "median of 5 corpus generations")
	loops := c.TotalLoops()

	// The first pass of a process runs slower (heap growth, cold code);
	// it is not timed.
	got, err := labelOp(nil, -1, c, cfg)
	if err != nil {
		return err
	}
	if o.regen {
		if err := os.WriteFile(labelGoldenPath, []byte(got+"\n"), 0o644); err != nil {
			return err
		}
		want = got
	}

	var opMS, tracedMS []float64
	var allocKiB, gcs, compiles, races, utils []float64
	misses, raceCtr := obs.C("sim.compile_cache.misses"), obs.C("sim.compile_cache.races")
	var peaks peakTracker
	w := openWindow()
	deadline := time.Now().Add(o.seconds)
	for op := 0; op == 0 || time.Now().Before(deadline) || (tr != nil && len(tracedMS) == 0); op++ {
		// A traced run alternates untraced and traced ops; the gap between
		// their medians is the tracing overhead.
		traced := tr != nil && op%2 == 1
		var m0, m1 runtime.MemStats
		if traced {
			runtime.ReadMemStats(&m0)
		}
		mis0, race0 := misses.Value(), raceCtr.Value()
		if !traced {
			peaks.start()
		}
		ow := openWindow()
		opTracer := (*tracer)(nil)
		if traced {
			opTracer = tr
		}
		got, err := labelOp(opTracer, op, c, cfg)
		env := ow.close()
		if traced {
			runtime.ReadMemStats(&m1)
			tracedMS = append(tracedMS, ms(env.Wall))
			allocKiB = append(allocKiB, float64(m1.TotalAlloc-m0.TotalAlloc)/1024/float64(2*loops))
			gcs = append(gcs, float64(m1.NumGC-m0.NumGC))
			compiles = append(compiles, float64(misses.Value()-mis0))
			races = append(races, float64(raceCtr.Value()-race0))
			utils = append(utils, env.cpuUtil())
		} else {
			opMS = append(opMS, ms(env.Wall))
			peaks.stop()
		}
		if err != nil {
			r.check(false)
			r.info("op %d failed: %v", op, err)
			continue
		}
		r.check(got == want)
		if got != want {
			r.info("op %d: dataset hash %s, golden %s", op, got, want)
		}
	}
	r.Env = w.close()

	n := len(opMS)
	r.set("op_p50_ms", median(opMS), "ms", n, "one labeling pass, both SWP modes")
	r.set("throughput_per_s", float64(2*loops)/(median(opMS)/1e3), "1/s", n,
		"loop labelings (one per loop per SWP mode) per second of the median op")
	setEndToEndCommon(r, &peaks)
	if tr == nil {
		return nil
	}

	r.set("label.alloc_kib_per_loop", median(allocKiB), "KiB", len(allocKiB), "heap allocated per loop labeling")
	r.set("label.gc_per_op", median(gcs), "count", len(gcs), "GC cycles per op")
	r.set("sim.compiles_per_op", median(compiles), "count", len(compiles), "compile-cache misses per op")
	r.set("sim.compile_races_per_op", median(races), "count", len(races), "compile-cache store races per op")
	r.set("label.cpu_util", median(utils), "1", len(utils), "process CPU / (wall × GOMAXPROCS) over a traced op")
	r.set("trace.overhead_ms", median(tracedMS)-median(opMS), "ms", len(tracedMS), "traced minus untraced median op")

	spans := tr.snapshot()
	var gen []float64
	for _, s := range spans {
		if s.Name == "loopgen.generate" {
			gen = append(gen, ms(s.dur()))
		}
	}
	r.set("loopgen.generate_ms", median(gen), "ms", len(gen), "median set-up corpus generation")
	for _, ph := range []string{"sim.label_off", "sim.label_on", "features.dataset"} {
		perOp := map[int]time.Duration{}
		for _, s := range spans {
			if s.Name == ph {
				perOp[s.Op] += s.dur()
			}
		}
		var vals []float64
		for _, d := range perOp {
			vals = append(vals, ms(d))
		}
		r.set(ph+"_ms", median(vals), "ms", len(vals), "median per traced op")
	}
	reportBreakdowns(r, breakdowns(spans, "harness.label_op"), selfLayers)
	if err := stageReplay(tr, r, c, cfg, o.seed); err != nil {
		return err
	}
	return o.writeSpans(tr, r)
}

// stageReplay times each compiler stage the labeler runs per (loop, u),
// replayed from outside on a seeded sample of the corpus's loops, plus the
// timer's compile (a cold timer) and measurement (a warm one).
func stageReplay(tr *tracer, r *report, c *loopgen.Corpus, cfg experiments.Config, seed int64) error {
	const sampleLoops = 64
	type pick struct {
		loop  *ir.Loop
		src   string
		noise float64
	}
	var all []pick
	for _, b := range c.Benchmarks {
		for i, l := range b.Loops {
			all = append(all, pick{l, b.Sources[i], b.NoiseScale})
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	if len(all) > sampleLoops {
		all = all[:sampleLoops]
	}
	m := sim.DefaultConfig().Mach
	stage := map[string][]time.Duration{}
	timeIt := func(name string, fn func() error) error {
		id := tr.begin(-1, -1, name, false)
		start := time.Now()
		err := fn()
		stage[name] = append(stage[name], time.Since(start))
		tr.end(id)
		return err
	}
	for _, p := range all {
		if err := timeIt("lang.parse", func() error {
			k, err := lang.ParseKernel(p.src)
			if err == nil {
				_, err = lang.Lower(k)
			}
			return err
		}); err != nil {
			return fmt.Errorf("replay parse %s: %w", p.loop.Name, err)
		}
		rn, rd := analysis.Build(p.loop.Clone(), m).RecurrenceRatioExcluding(func(op *ir.Op) bool {
			return op.Code == ir.OpAdd && selfCarried(op)
		})
		for u := 1; u <= transform.MaxFactor; u++ {
			var unrolled *ir.Loop
			var g *analysis.Graph
			var s *sched.Schedule
			if err := timeIt("transform.unroll", func() (err error) {
				unrolled, _, err = transform.Unroll(p.loop, u)
				return err
			}); err != nil {
				return fmt.Errorf("replay unroll %s u=%d: %w", p.loop.Name, u, err)
			}
			_ = timeIt("analysis.build", func() error { g = analysis.Build(unrolled, m); return nil })
			_ = timeIt("sched.list", func() error { s = sched.List(g); return nil })
			_ = timeIt("regalloc.run", func() error { regalloc.Run(s); return nil })
			if !unrolled.EarlyExit && !hasCalls(unrolled) {
				if err := timeIt("swp.schedule", func() error {
					_, err := swp.Schedule(g, pipelineMII(g, u, rn, rd))
					return err
				}); err != nil {
					return fmt.Errorf("replay swp %s u=%d: %w", p.loop.Name, u, err)
				}
			}
		}
	}
	for _, swpOn := range []bool{false, true} {
		sc := sim.DefaultConfig()
		sc.SWP = swpOn
		sc.Runs = cfg.Runs
		for _, p := range all {
			t := sim.NewTimer(sc)
			for u := 1; u <= transform.MaxFactor; u++ {
				if err := timeIt("sim.compile", func() error { _, err := t.Cycles(p.loop, u); return err }); err != nil {
					return fmt.Errorf("replay compile %s u=%d: %w", p.loop.Name, u, err)
				}
			}
			mrng := rand.New(rand.NewSource(seed))
			for u := 1; u <= transform.MaxFactor; u++ {
				if err := timeIt("sim.measure", func() error {
					_, err := t.MeasureScaled(p.loop, u, mrng, p.noise)
					return err
				}); err != nil {
					return err
				}
			}
		}
	}
	for _, name := range []string{"lang.parse", "transform.unroll", "analysis.build", "sched.list", "regalloc.run", "swp.schedule", "sim.compile", "sim.measure"} {
		ds := stage[name]
		vals := make([]float64, len(ds))
		for i, d := range ds {
			vals[i] = us(d)
		}
		unit := "per (loop, u)"
		if name == "lang.parse" {
			unit = "per loop"
		}
		r.set(name+"_us", sum(vals)/float64(len(vals)), "us", len(vals), "mean "+unit+", replayed on a seeded sample")
	}
	return nil
}

// pipelineMII restates the simulator's modulo-scheduling lower bound: the
// resource bound, or the rolled body's recurrence ratio scaled by u.
func pipelineMII(g *analysis.Graph, u, rn, rd int) int {
	num, den := g.ResMII()
	mii := (num + den - 1) / den
	if rd > 0 && rn > 0 {
		if r := (u*rn + rd - 1) / rd; r > mii {
			mii = r
		}
	}
	return max(mii, 1)
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
