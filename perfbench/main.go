// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload in this process — the full-scale paper pipeline, corpus
// labeling, or the prediction service — checks every op's output against
// the goldens in perfbench/golden, and prints each metric with its unit
// and sample count. The last line of standard output is one JSON object
// with the metrics BENCHMARK.json declares: the end-to-end ones untraced,
// the per-layer ones with --trace 1. Run it from the repository root
// through perfbench/run.sh; NOTES.md describes the workloads.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	regen    bool // rewrite the goldens from this run's outputs
}

// Paths relative to the repository root, where the harness runs.
var (
	goldenDir = filepath.Join("perfbench", "golden")
	spansDir  = filepath.Join(".bench_build", "spans")
)

var workloads = map[string]func(*options, *report) error{
	"pipeline": runPipeline,
	"label":    runLabel,
	"serve":    runServe,
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		o       options
		seconds int
		trace   int
	)
	flag.StringVar(&o.workload, "workload", "", "pipeline, label, serve, or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed for the workload's generated inputs")
	flag.IntVar(&seconds, "seconds", 10, "how long to measure, in seconds (at least one op always runs)")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer metrics")
	flag.BoolVar(&o.regen, "regen", false, "rewrite the goldens in "+goldenDir+" from this run's outputs")
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if seconds < 1 {
		return errors.New("--seconds must be at least 1")
	}
	if trace != 0 && trace != 1 {
		return errors.New("--trace must be 0 or 1")
	}
	o.seconds = time.Duration(seconds) * time.Second
	o.trace = trace == 1
	if o.regen {
		if err := os.MkdirAll(pipelineGoldenDir, 0o755); err != nil {
			return err
		}
	}

	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	names := []string{o.workload}
	if o.workload == "all" {
		names = names[:0]
		for _, w := range sp.Workloads {
			names = append(names, w.Name)
		}
	}
	for _, n := range names {
		if workloads[n] == nil {
			return fmt.Errorf("unknown workload %q (want pipeline, label, serve or all)", n)
		}
	}

	var last jsonResult
	for i, n := range names {
		wo := o
		wo.workload = n
		r := newReport(n)
		if err := workloads[n](&wo, r); err != nil {
			return fmt.Errorf("%s: %w", n, err)
		}
		r.writeHuman(os.Stdout, o.trace)
		declared, zeroFill := sp.EndToEnd, false
		if o.trace {
			declared, zeroFill = sp.PerLayer, true
		}
		res, err := r.result(declared, zeroFill)
		if err != nil {
			return err
		}
		if len(names) > 1 {
			raw, _ := json.Marshal(res)
			fmt.Printf("%s: %s\n", n, raw)
		}
		last = mergeResults(last, res, i == 0)
	}
	raw, err := json.Marshal(last)
	if err != nil {
		return err
	}
	fmt.Println(string(raw))
	if !last.Correct {
		return errors.New("an output check failed")
	}
	return nil
}

// mergeResults folds the workloads of an "all" run into one verdict; the
// metrics are those of the last workload (each workload's own line is
// printed above it).
func mergeResults(acc, res jsonResult, first bool) jsonResult {
	if first {
		return res
	}
	res.Correct = acc.Correct && res.Correct
	res.Attempted += acc.Attempted
	res.Failed += acc.Failed
	return res
}
