// Command metaopt is the user-facing CLI: it compiles LoopLang kernels,
// prints their feature vectors, sweeps unroll factors on the machine model,
// trains predictor artifacts, and predicts factors with them.
//
// Usage:
//
//	metaopt features <file.loop>
//	metaopt sweep [-swp] [-mach itanium2|embedded2] <file.loop>
//	metaopt train -data dataset.json [-alg nn|svm|...] -o model.json
//	metaopt predict [-model model.json | -remote URL] <file.loop>
//	metaopt heuristic [-swp] <file.loop>
//
// Train once, predict many: the train subcommand persists a versioned
// artifact that predict, explain, and the unrolld service load without
// retraining.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"metaopt/unroll"
	"metaopt/unroll/client"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	args := os.Args[2:]
	var err error
	switch cmd {
	case "features":
		err = cmdFeatures(args)
	case "sweep":
		err = cmdSweep(args)
	case "train":
		err = cmdTrain(args)
	case "predict":
		err = cmdPredict(args)
	case "heuristic":
		err = cmdHeuristic(args)
	case "schedule":
		err = cmdSchedule(args)
	case "dot":
		err = cmdDot(args)
	case "explain":
		err = cmdExplain(args)
	case "eval":
		err = cmdEval(args)
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "metaopt: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "metaopt: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  metaopt features <file.loop>                 print the 38-feature vector of each kernel
  metaopt sweep [-swp] [-mach M] <file.loop>   time every unroll factor on the machine model
  metaopt train [-data D] [-alg A] -o M        fit a predictor once and save the artifact
  metaopt predict [-model M | -remote URL] <file>  predict unroll factors (no retraining)
  metaopt heuristic [-swp] <file.loop>         the hand-written baseline's choices
  metaopt schedule [-u N] [-swp] <file.loop>   show the scheduled loop body (bundle table / kernel)
  metaopt dot [-u N] <file.loop>               dependence graph in Graphviz format
  metaopt explain [-model M] <file>            nearest-neighbor evidence behind each prediction
  metaopt eval [-data D] [-alg A]              leave-one-out evaluation with a confusion matrix`)
}

func loadLoops(path string) ([]*unroll.Loop, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return unroll.ParseFile(string(src))
}

func machByName(name string) (*unroll.Machine, error) {
	switch name {
	case "", "itanium2":
		return unroll.Itanium2(), nil
	case "embedded2":
		return unroll.Embedded(), nil
	case "wide8":
		return unroll.Wide(), nil
	}
	return nil, fmt.Errorf("unknown machine %q", name)
}

func cmdFeatures(args []string) error {
	fs := flag.NewFlagSet("features", flag.ExitOnError)
	mach := fs.String("mach", "itanium2", "machine model: itanium2, embedded2, wide8")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("features: want one input file")
	}
	m, err := machByName(*mach)
	if err != nil {
		return err
	}
	loops, err := loadLoops(fs.Arg(0))
	if err != nil {
		return err
	}
	names := unroll.FeatureNames()
	for _, l := range loops {
		fmt.Printf("loop %s (%s, %d ops)\n", l.Name, l.Lang, l.NumOps())
		v := unroll.Features(l, m)
		for i, name := range names {
			fmt.Printf("  %-18s %10.2f\n", name, v[i])
		}
	}
	return nil
}

func cmdSweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	swp := fs.Bool("swp", false, "enable software pipelining")
	mach := fs.String("mach", "itanium2", "machine model: itanium2, embedded2, wide8")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("sweep: want one input file")
	}
	m, err := machByName(*mach)
	if err != nil {
		return err
	}
	loops, err := loadLoops(fs.Arg(0))
	if err != nil {
		return err
	}
	tm := unroll.NewTimer(m, *swp)
	for _, l := range loops {
		best, timings, err := tm.Best(l)
		if err != nil {
			return err
		}
		fmt.Printf("loop %s (trip %d, %d ops, swp=%v on %s)\n", l.Name, l.TripCount, l.NumOps(), *swp, m.Name)
		fmt.Printf("  %2s %12s %10s %6s %6s %6s\n", "u", "cycles", "per-iter", "ops", "II", "spill")
		for u := 1; u <= unroll.MaxFactor; u++ {
			t := timings[u]
			mark := " "
			if u == best {
				mark = "*"
			}
			ii := "-"
			if t.Pipelined {
				ii = fmt.Sprint(t.II)
			}
			fmt.Printf("%s %2d %12d %10.2f %6d %6s %6d\n", mark, u, t.Cycles, t.PerIter, t.Ops, ii, t.Spills)
		}
		fmt.Printf("  best factor: %d; baseline heuristic: %d\n\n", best, unroll.Heuristic(l, m, *swp))
	}
	return nil
}

func cmdPredict(args []string) error {
	fs := flag.NewFlagSet("predict", flag.ExitOnError)
	model := fs.String("model", "", "predictor artifact from 'metaopt train'")
	remote := fs.String("remote", "", "query a running unrolld fleet at these comma-separated base URLs")
	pin := fs.String("pin", "", "with -remote: pin a served model version by alias or fingerprint")
	tenant := fs.String("tenant", "", "with -remote: tenant label for per-tenant accounting")
	mach := fs.String("mach", "itanium2", "with -remote: machine model the served model targets: itanium2, embedded2, wide8")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("predict: want one input file")
	}
	if *remote != "" {
		if *model != "" {
			return fmt.Errorf("predict: -remote is exclusive of -model")
		}
		return predictRemote(*remote, *mach, *pin, *tenant, fs.Arg(0))
	}
	if *pin != "" || *tenant != "" {
		return fmt.Errorf("predict: -pin and -tenant need -remote")
	}
	if *model == "" {
		return fmt.Errorf("predict: need -model (train one with 'metaopt train -o model.json') or -remote")
	}
	p, err := unroll.LoadPredictorFile(*model)
	if err != nil {
		return err
	}
	loops, err := loadLoops(fs.Arg(0))
	if err != nil {
		return err
	}
	for _, l := range loops {
		u, err := p.PredictCtx(context.Background(), l)
		if err != nil {
			return fmt.Errorf("predict %s: %w", l.Name, err)
		}
		line := fmt.Sprintf("loop %-16s -> unroll %d", l.Name, u)
		if n, agree, ok := p.Confidence(l); ok {
			line += fmt.Sprintf("   (%d neighbors, %.0f%% agreement)", n, 100*agree)
		}
		fmt.Println(line)
	}
	return nil
}

// predictRemote extracts each kernel's feature vector locally and asks a
// running unrolld fleet for the factors in one batch round trip. Multiple
// comma-separated endpoints are balanced and failed over by the client;
// pin and tenant route through the v2 protocol when set. The -mach flag
// must match the machine the served model was trained for.
func predictRemote(endpoints, mach, pin, tenant, path string) error {
	m, err := machByName(mach)
	if err != nil {
		return err
	}
	loops, err := loadLoops(path)
	if err != nil {
		return err
	}
	reqs := make([]client.PredictRequest, len(loops))
	for i, l := range loops {
		reqs[i] = client.PredictRequest{Features: unroll.Features(l, m)}
	}
	c, err := client.NewClient(client.Config{
		Endpoints: strings.Split(endpoints, ","),
		Retry:     &client.RetryPolicy{MaxAttempts: 3},
		Model:     pin,
		Tenant:    tenant,
	})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var resp *client.BatchResponse
	if pin != "" || tenant != "" {
		resp, err = c.PredictBatchV2(ctx, client.BatchV2Request{Loops: reqs})
	} else {
		resp, err = c.PredictBatch(ctx, reqs)
	}
	if err != nil {
		return err
	}
	for i, res := range resp.Results {
		if res.Error != "" {
			return fmt.Errorf("predict %s: service: %s", loops[i].Name, res.Error)
		}
		fmt.Printf("loop %-16s -> unroll %d   (model %.12s…)\n", loops[i].Name, res.Factor, resp.Fingerprint)
	}
	return nil
}

func cmdHeuristic(args []string) error {
	fs := flag.NewFlagSet("heuristic", flag.ExitOnError)
	swp := fs.Bool("swp", false, "enable software pipelining")
	mach := fs.String("mach", "itanium2", "machine model: itanium2, embedded2, wide8")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("heuristic: want one input file")
	}
	m, err := machByName(*mach)
	if err != nil {
		return err
	}
	loops, err := loadLoops(fs.Arg(0))
	if err != nil {
		return err
	}
	for _, l := range loops {
		fmt.Printf("loop %-16s -> unroll %d\n", l.Name, unroll.Heuristic(l, m, *swp))
	}
	return nil
}
