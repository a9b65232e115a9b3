// Command experiments regenerates the paper's tables and figures on the
// synthetic substrate. Each experiment prints the same rows/series the
// paper reports; EXPERIMENTS.md records paper-vs-measured values.
//
// Usage:
//
//	experiments [-run all|table2,table3,table4,figure1..figure5,summary] \
//	            [-scale 1.0] [-seed 2005] [-runs 30] [-svmcap 0] [-traincap 1500] \
//	            [-workers 0] [-cpuprofile out.pprof] [-memprofile out.pprof] \
//	            [-manifest out.json] [-trace out.json] [-debugaddr :0]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"

	"metaopt/internal/experiments"
	"metaopt/internal/obs"
	"metaopt/internal/par"
)

func main() {
	var (
		run       = flag.String("run", "all", "comma-separated experiments: summary,table1,table2,table3,table4,figure1,figure2,figure3,figure4,figure5")
		scale     = flag.Float64("scale", 1.0, "corpus scale (1.0 = full ~3500-loop corpus)")
		seed      = flag.Int64("seed", 2005, "corpus and measurement seed")
		runs      = flag.Int("runs", 30, "measurement repetitions per timing")
		svmCap    = flag.Int("svmcap", 0, "cap on Table 2 SVM LOOCV set (0 = full)")
		trainCap  = flag.Int("traincap", 1500, "cap on SVM training set per speedup fold (0 = no cap)")
		workers   = flag.Int("workers", 0, "worker-pool width for parallel stages (0 = GOMAXPROCS, 1 = serial)")
		quiet     = flag.Bool("q", false, "suppress the end-of-run telemetry summary")
		asJSON    = flag.Bool("json", false, "emit results as JSON instead of rendered text")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file on exit")
		manifest  = flag.String("manifest", "", "write a machine-readable run manifest (config, versions, phases, metrics) to this file")
		traceOut  = flag.String("trace", "", "write phase spans as Chrome trace-event JSON to this file")
		debugAddr = flag.String("debugaddr", "", "serve live /debug/metrics and /debug/pprof on this address while running (\":0\" picks a port)")
	)
	flag.Parse()

	if *workers > 0 {
		par.SetLimit(*workers)
	}
	if *debugAddr != "" {
		addr, err := obs.ServeDebug(*debugAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "debug endpoint: http://%s/debug/metrics\n", addr)
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the profile shows live heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: memprofile: %v\n", err)
			}
		}()
	}

	cfg := experiments.DefaultConfig()
	cfg.Seed = *seed
	cfg.Scale = *scale
	cfg.Runs = *runs
	cfg.SVMCap = *svmCap
	cfg.TrainCap = *trainCap
	env := experiments.NewEnv(cfg)

	type step struct {
		name string
		fn   func() (fmt.Stringer, error)
	}
	render := func(f func() (interface{ Render() string }, error)) func() (fmt.Stringer, error) {
		return func() (fmt.Stringer, error) {
			r, err := f()
			if err != nil {
				return nil, err
			}
			if *asJSON {
				return jsonify(r)
			}
			return stringer{r.Render()}, nil
		}
	}
	steps := []step{
		{"summary", render(func() (interface{ Render() string }, error) { return experiments.Summary(env) })},
		{"table1", render(func() (interface{ Render() string }, error) { return experiments.Table1(env) })},
		{"figure3", render(func() (interface{ Render() string }, error) { return experiments.Figure3(env) })},
		{"table3", render(func() (interface{ Render() string }, error) { return experiments.Table3(env) })},
		{"table4", render(func() (interface{ Render() string }, error) { return experiments.Table4(env) })},
		{"table2", render(func() (interface{ Render() string }, error) { return experiments.Table2(env) })},
		{"figure1", render(func() (interface{ Render() string }, error) { return experiments.Figure1(env) })},
		{"figure2", render(func() (interface{ Render() string }, error) { return experiments.Figure2(env) })},
		{"figure4", render(func() (interface{ Render() string }, error) { return experiments.Figure4(env) })},
		{"figure5", render(func() (interface{ Render() string }, error) { return experiments.Figure5(env) })},
	}

	valid := map[string]bool{"all": true}
	for _, s := range steps {
		valid[s.name] = true
	}
	want := map[string]bool{}
	for _, name := range strings.Split(*run, ",") {
		name = strings.TrimSpace(strings.ToLower(name))
		if name == "" {
			continue
		}
		if !valid[name] {
			names := make([]string, 0, len(valid))
			for n := range valid {
				names = append(names, n)
			}
			sort.Strings(names)
			fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q (valid: %s)\n",
				name, strings.Join(names, ", "))
			os.Exit(2)
		}
		want[name] = true
	}
	all := want["all"]

	for _, s := range steps {
		if !all && !want[s.name] {
			continue
		}
		sp := obs.Begin("experiment." + s.name)
		out, err := s.fn()
		sp.End()
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", s.name, err)
			os.Exit(1)
		}
		fmt.Println(out.String())
	}

	if !*quiet {
		obs.WriteSummary(os.Stderr)
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err == nil {
			err = obs.DefaultTrace.WriteChromeTrace(f)
		}
		if err == nil {
			err = f.Close()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: trace: %v\n", err)
			os.Exit(1)
		}
	}
	if *manifest != "" {
		m := obs.BuildManifest("experiments", os.Args[1:], *seed, par.Limit(), cfg)
		if err := m.WriteFile(*manifest); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: manifest: %v\n", err)
			os.Exit(1)
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "wrote manifest to %s\n", *manifest)
		}
	}
}

type stringer struct{ s string }

func (s stringer) String() string { return s.s }

// jsonify marshals an experiment result for machine consumption.
func jsonify(r any) (fmt.Stringer, error) {
	raw, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return nil, err
	}
	return stringer{string(raw)}, nil
}
