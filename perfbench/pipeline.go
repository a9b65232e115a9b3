package main

import (
	"fmt"
	"path/filepath"
	"time"

	"metaopt/internal/experiments"
	"metaopt/internal/loopgen"
)

// sectionOrder is the CLI order of `experiments -run all`.
var sectionOrder = []string{
	"summary", "table1", "figure3", "table3", "table4",
	"table2", "figure1", "figure2", "figure4", "figure5",
}

// unstableSections render differently from run to run because of two
// map-order sums in the program (see NOTES.md): their mismatches are
// counted in pipeline.unstable_sections instead of failing the op.
var unstableSections = map[string]bool{"table3": true, "figure1": true, "figure2": true}

type renderer interface{ Render() string }

// pipelineCLI is one `experiments -run all`: a fresh Env and the ten
// experiments in CLI order, each rendered as the CLI prints it.
func pipelineCLI(cfg experiments.Config) (map[string]string, error) {
	env := experiments.NewEnv(cfg)
	steps := []func() (renderer, error){
		func() (renderer, error) { return experiments.Summary(env) },
		func() (renderer, error) { return experiments.Table1(env) },
		func() (renderer, error) { return experiments.Figure3(env) },
		func() (renderer, error) { return experiments.Table3(env) },
		func() (renderer, error) { return experiments.Table4(env) },
		func() (renderer, error) { return experiments.Table2(env) },
		func() (renderer, error) { return experiments.Figure1(env) },
		func() (renderer, error) { return experiments.Figure2(env) },
		func() (renderer, error) { return experiments.Figure4(env) },
		func() (renderer, error) { return experiments.Figure5(env) },
	}
	out := make(map[string]string, len(steps))
	for i, step := range steps {
		r, err := step()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sectionOrder[i], err)
		}
		out[sectionOrder[i]] = r.Render()
	}
	return out, nil
}

// compareSections checks an op's sections against the goldens. It returns
// whether every stable section matched and how many unstable ones did not.
func compareSections(got, want map[string]string) (ok bool, unstable int, diffs []string) {
	ok = true
	for _, name := range sectionOrder {
		if got[name] == want[name] {
			continue
		}
		if unstableSections[name] {
			unstable++
			continue
		}
		ok = false
		diffs = append(diffs, name)
	}
	return ok, unstable, diffs
}

var pipelineGoldenDir = filepath.Join(goldenDir, "pipeline")

// runPipeline measures full-scale `experiments -run all` ops.
func runPipeline(o *options, r *report) error {
	cfg := experiments.DefaultConfig()
	// Set-up is the harness start: loading the goldens and sizing the
	// corpus the throughput counts. Each op generates its own corpus.
	var want map[string]string
	loops := 0
	setup, err := repeatSetup(5, func() error {
		var err error
		if want, err = readSections(pipelineGoldenDir, sectionOrder, o.regen); err != nil {
			return err
		}
		c, err := loopgen.Generate(loopgen.Options{Seed: cfg.Seed, LoopsScale: cfg.Scale})
		if err != nil {
			return err
		}
		loops = c.TotalLoops()
		return nil
	})
	if err != nil {
		return err
	}
	r.set("setup_s", setup, "s", 5, "median of 5 harness starts: load goldens, size the corpus")

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	var opMS []float64
	var peaks peakTracker
	unstable, compared, table2N := 0, 0, 0
	w := openWindow()
	deadline := time.Now().Add(o.seconds)
	for op := 0; op == 0 || time.Now().Before(deadline); op++ {
		peaks.start()
		start := time.Now()
		var got map[string]string
		var err error
		if tr != nil {
			got, err = pipelineTraced(tr, op, cfg, &table2N)
		} else {
			got, err = pipelineCLI(cfg)
		}
		opMS = append(opMS, ms(time.Since(start)))
		peaks.stop()
		if err != nil {
			r.check(false)
			r.info("op %d failed: %v", op, err)
			continue
		}
		if o.regen {
			if err := writeSections(pipelineGoldenDir, got); err != nil {
				return err
			}
			want = got
		}
		ok, un, diffs := compareSections(got, want)
		r.check(ok)
		unstable += un
		compared++
		if !ok {
			r.info("op %d: sections differ from the goldens: %v", op, diffs)
		}
	}
	r.Env = w.close()

	n := len(opMS)
	r.set("op_p50_ms", median(opMS), "ms", n, "one full-scale experiments -run all")
	r.set("throughput_per_s", float64(loops)/(median(opMS)/1e3), "1/s", n,
		"corpus loops through the whole pipeline per second of the median op")
	setEndToEndCommon(r, &peaks)
	if compared > 0 {
		r.set("pipeline.unstable_sections", float64(unstable)/float64(compared), "count", compared,
			"unstable sections (table3, figure1, figure2) differing from the goldens, per op")
	}
	if tr != nil {
		if err := pipelineTraceReport(o, tr, r, cfg, table2N); err != nil {
			return err
		}
	}
	return nil
}
