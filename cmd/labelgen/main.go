// Command labelgen reproduces the paper's fully automated label
// collection: it generates the 72-benchmark corpus, times every loop at
// every unroll factor (median of repeated noisy runs), applies the
// instrumentation floor and the 1.05x filter, and writes the labeled
// dataset as JSON — the equivalent of the raw loop data the authors
// released. Optionally it also dumps every kernel's LoopLang source.
//
// One process labels the full corpus in about a second; -replicate N
// labels N perturbed copies of it for 10×–100× stress datasets. Long runs
// survive interruption: -checkpoint snapshots progress atomically every few
// benchmarks, and -resume continues from the snapshot with output
// bit-identical to an uninterrupted run.
//
// Usage:
//
//	labelgen [-scale 1.0] [-replicate 1] [-seed 2005] [-runs 30] [-swp] [-workers n] \
//	         [-out dataset.json] [-dump-kernels dir] \
//	         [-checkpoint labels.ckpt] [-resume] [-checkpoint-every 8] \
//	         [-manifest out.json] [-debugaddr :0]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"metaopt/internal/atomicio"
	"metaopt/internal/faults"
	"metaopt/internal/obs"
	"metaopt/internal/par"
	"metaopt/unroll"
)

func main() {
	var (
		scale     = flag.Float64("scale", 1.0, "corpus scale (1.0 = full ~3500 loops)")
		seed      = flag.Int64("seed", 2005, "generation and measurement seed")
		runs      = flag.Int("runs", 30, "measurement repetitions per timing")
		swp       = flag.Bool("swp", false, "label with software pipelining enabled")
		out       = flag.String("out", "dataset.json", "output dataset path")
		replicate = flag.Int("replicate", 1, "deterministically replicate the corpus N times (perturbed seeds, \"@rN\" names) for 10x/100x stress datasets")
		dump      = flag.String("dump-kernels", "", "directory to write kernel sources into (optional)")
		stats     = flag.Bool("stats", false, "print corpus composition statistics and exit")
		ckpt      = flag.String("checkpoint", "", "snapshot labeling progress to this file (atomic writes)")
		resume    = flag.Bool("resume", false, "continue from -checkpoint if it exists; output is bit-identical to an uninterrupted run")
		ckptEvery = flag.Int("checkpoint-every", 8, "benchmarks between checkpoint snapshots")
		manifest  = flag.String("manifest", "", "write a machine-readable run manifest to this file")
		debugAddr = flag.String("debugaddr", "", "serve live /debug/metrics and /debug/pprof on this address while running (\":0\" picks a port)")
		workers   = flag.Int("workers", 0, "parallel labeling workers (0 = GOMAXPROCS); not label-affecting, so checkpoints resume across different values")
	)
	flag.Parse()

	if err := faults.InstallFromEnv(); err != nil {
		fmt.Fprintf(os.Stderr, "labelgen: %v\n", err)
		os.Exit(1)
	}
	if *workers > 0 {
		par.SetLimit(*workers)
	}
	if *resume && *ckpt == "" {
		fmt.Fprintln(os.Stderr, "labelgen: -resume needs -checkpoint")
		os.Exit(1)
	}
	if *debugAddr != "" {
		addr, err := obs.ServeDebug(*debugAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "labelgen: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "debug endpoint: http://%s/debug/metrics\n", addr)
	}
	if *stats {
		if err := runStats(*scale, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "labelgen: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*scale, *seed, *runs, *swp, *replicate, *out, *dump, *ckpt, *resume, *ckptEvery); err != nil {
		fmt.Fprintf(os.Stderr, "labelgen: %v\n", err)
		os.Exit(1)
	}
	if *manifest != "" {
		type manifestConfig struct {
			Scale float64 `json:"scale"`
			Runs  int     `json:"runs"`
			SWP   bool    `json:"swp"`
		}
		m := obs.BuildManifest("labelgen", os.Args[1:], *seed, par.Limit(),
			manifestConfig{Scale: *scale, Runs: *runs, SWP: *swp})
		if err := m.WriteFile(*manifest); err != nil {
			fmt.Fprintf(os.Stderr, "labelgen: manifest: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote manifest to %s\n", *manifest)
	}
}

func run(scale float64, seed int64, runs int, swp bool, replicate int, out, dump, ckpt string, resume bool, ckptEvery int) error {
	sp := obs.Begin("corpus.generate")
	corpus, err := unroll.GenerateCorpusReplicated(seed, scale, replicate)
	sp.End()
	if err != nil {
		return err
	}
	total := 0
	for _, b := range corpus.Benchmarks {
		total += len(b.Loops)
	}
	fmt.Fprintf(os.Stderr, "generated %d benchmarks, %d loops\n", len(corpus.Benchmarks), total)

	if dump != "" {
		if err := dumpKernels(corpus, dump); err != nil {
			return err
		}
	}

	opt := unroll.CollectOptions{Seed: seed, Runs: runs, SWP: swp}
	var ds *unroll.Dataset
	if ckpt != "" {
		if resume {
			fmt.Fprintf(os.Stderr, "resuming from %s if present\n", ckpt)
		}
		ds, err = unroll.CollectDatasetCheckpointed(corpus, opt,
			unroll.CheckpointOptions{Path: ckpt, Resume: resume, Every: ckptEvery})
	} else {
		ds, err = unroll.CollectDataset(corpus, opt)
	}
	if err != nil {
		if ckpt != "" {
			fmt.Fprintf(os.Stderr, "labeling interrupted; progress is checkpointed in %s (rerun with -resume)\n", ckpt)
		}
		return err
	}
	fmt.Fprintf(os.Stderr, "labeled %d training examples (after the 50k-cycle floor and 1.05x filter)\n", ds.Len())

	if err := atomicio.WriteFile(out, ds.Save); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", out)
	return nil
}

func runStats(scale float64, seed int64) error {
	corpus, err := unroll.GenerateCorpus(seed, scale)
	if err != nil {
		return err
	}
	fmt.Print(corpus.ComputeStats().Render())
	return nil
}

func dumpKernels(corpus *unroll.Corpus, dir string) error {
	for _, b := range corpus.Benchmarks {
		bdir := filepath.Join(dir, string(b.Suite), b.Name)
		if err := os.MkdirAll(bdir, 0o755); err != nil {
			return err
		}
		for i, src := range b.Sources {
			path := filepath.Join(bdir, fmt.Sprintf("%s.loop", b.Loops[i].Name))
			if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
				return err
			}
		}
	}
	fmt.Fprintf(os.Stderr, "dumped kernel sources under %s\n", dir)
	return nil
}
