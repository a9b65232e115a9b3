package unroll_test

import (
	"bytes"
	"context"
	"fmt"

	"metaopt/unroll"
)

// exampleDataset labels a small generated corpus for the training
// examples below.
func exampleDataset() *unroll.Dataset {
	c, err := unroll.GenerateCorpus(5, 0.05)
	if err != nil {
		panic(err)
	}
	d, err := unroll.CollectDataset(c, unroll.CollectOptions{Seed: 1, Runs: 3})
	if err != nil {
		panic(err)
	}
	return d
}

// The quickstart path: parse a kernel, inspect it, and sweep unroll factors
// on the machine model.
func ExampleParseKernel() {
	loop, err := unroll.ParseKernel(`
kernel daxpy lang=c {
	param double a;
	double x[], y[];
	noalias;
	for i = 0 .. 4096 { y[i] = y[i] + a * x[i]; }
}`)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%s: %d ops, trip %d, language %s\n", loop.Name, loop.NumOps(), loop.TripCount, loop.Lang)
	// Output:
	// daxpy: 7 ops, trip 4096, language C
}

func ExampleTimer_Best() {
	loop, _ := unroll.ParseKernel(`
kernel daxpy lang=c {
	param double a;
	double x[], y[];
	noalias;
	for i = 0 .. 4096 { y[i] = y[i] + a * x[i]; }
}`)
	timer := unroll.NewTimer(unroll.Itanium2(), false)
	best, timings, err := timer.Best(loop)
	if err != nil {
		panic(err)
	}
	fmt.Printf("best factor %d beats rolled: %v\n", best, timings[best].Cycles < timings[1].Cycles)
	// Output:
	// best factor 8 beats rolled: true
}

func ExampleFeatures() {
	loop, _ := unroll.ParseKernel(`
kernel dot lang=fortran {
	double a[], b[];
	double s;
	for i = 0 .. 1024 { s = s + a[i]*b[i]; }
}`)
	v := unroll.Features(loop, unroll.Itanium2())
	fmt.Printf("num_fp_ops=%.0f num_mem_ops=%.0f lang_fortran=%.0f\n",
		v[unroll.FeatureIndex("num_fp_ops")],
		v[unroll.FeatureIndex("num_mem_ops")],
		v[unroll.FeatureIndex("lang_fortran")])
	// Output:
	// num_fp_ops=1 num_mem_ops=2 lang_fortran=1
}

func ExampleUnrollLoop() {
	loop, _ := unroll.ParseKernel(`
kernel scale lang=c {
	double x[];
	noalias;
	for i = 0 .. 256 { x[i] = x[i] * 2.0; }
}`)
	unrolled, err := unroll.UnrollLoop(loop, 4)
	if err != nil {
		panic(err)
	}
	fmt.Printf("rolled %d ops -> unrolled-by-4 %d ops\n", loop.NumOps(), unrolled.NumOps())
	// Output:
	// rolled 6 ops -> unrolled-by-4 15 ops
}

// Serving-style usage: train once, compile the predictor into its flat
// serve-time form, and answer many loops per call through the batched
// distance path. The compiled fingerprint extends the model fingerprint
// with the lowering version, and the batch answers match the trained
// predictor's.
func ExampleCompiledPredictor_PredictBatch() {
	pred, err := unroll.Train(exampleDataset(), unroll.TrainOptions{Algorithm: unroll.NearNeighbor})
	if err != nil {
		panic(err)
	}
	comp, err := unroll.Compile(pred)
	if err != nil {
		panic(err)
	}
	loops, err := unroll.ParseFile(`
kernel daxpy lang=c { param double a; double x[], y[]; noalias; for i = 0 .. 4096 { y[i] = y[i] + a * x[i]; } }
kernel dot lang=fortran { double a[], b[]; double s; for i = 0 .. 1024 { s = s + a[i]*b[i]; } }`)
	if err != nil {
		panic(err)
	}
	factors, err := comp.PredictBatch(context.Background(), loops)
	if err != nil {
		panic(err)
	}
	agree := true
	for i, l := range loops {
		u, err := pred.PredictCtx(context.Background(), l)
		if err != nil {
			panic(err)
		}
		agree = agree && u == factors[i]
	}
	fmt.Printf("compiled %s predictor (version %s)\n", pred.Algorithm(), comp.Version())
	fmt.Printf("%d loops -> %d factors, matching the trained model: %v\n",
		len(loops), len(factors), agree)
	// Output:
	// compiled nn predictor (version nn/v1+f32b)
	// 2 loops -> 2 factors, matching the trained model: true
}

// Artifacts carry a format version and a content fingerprint: both
// survive the Save/LoadPredictor round trip, and loading rejects
// artifacts written by a newer format.
func ExampleLoadPredictor() {
	pred, err := unroll.Train(exampleDataset(), unroll.TrainOptions{Algorithm: unroll.LSSVM})
	if err != nil {
		panic(err)
	}
	var artifact bytes.Buffer
	if err := pred.Save(&artifact); err != nil {
		panic(err)
	}
	loaded, err := unroll.LoadPredictor(&artifact)
	if err != nil {
		panic(err)
	}
	fmt.Printf("format v%d, fingerprint stable across round trip: %v\n",
		loaded.Version(), loaded.Fingerprint() == pred.Fingerprint())
	// Output:
	// format v1, fingerprint stable across round trip: true
}

func ExampleHeuristic() {
	loop, _ := unroll.ParseKernel(`
kernel search lang=c {
	double a[];
	double s;
	for i = 0 .. n { s = s + a[i]; if (s > 100.0) break; }
}`)
	m := unroll.Itanium2()
	fmt.Printf("early-exit loop: heuristic picks %d without SWP\n", unroll.Heuristic(loop, m, false))
	// Output:
	// early-exit loop: heuristic picks 2 without SWP
}
