// Package core implements the paper's pipeline end to end: collecting
// labeled training data by timing every loop at every unroll factor
// (Section 4.4), filtering to measurable loops whose unrolling choice
// matters (Section 4.6), extracting and selecting features (Section 7),
// training and cross-validating classifiers (Section 6), and realizing
// whole-program speedups on the SPEC 2000 benchmarks under
// leave-one-benchmark-out training (Section 6.1).
package core

import (
	"fmt"
	"math/rand"

	"metaopt/internal/features"
	"metaopt/internal/ir"
	"metaopt/internal/loopgen"
	"metaopt/internal/ml"
	"metaopt/internal/obs"
	"metaopt/internal/sim"
	"metaopt/internal/transform"
)

var (
	mLoopsLabeled = obs.C("core.loops_labeled")
	mLoopsKept    = obs.C("core.loops_kept")
)

// FilterRatio is the paper's corpus filter: a loop is kept for training
// only when its best unroll factor beats the average over all factors by
// at least this ratio ("measurably better than the average (1.05x)").
const FilterRatio = 1.05

// LoopLabel is the measured outcome for one loop.
type LoopLabel struct {
	Loop      *ir.Loop
	Benchmark string
	Cycles    [transform.MaxFactor + 1]int64 // median measured cycles per factor
	Best      int                            // argmin over factors
	Usable    bool                           // cleared the instrumentation floor
	Kept      bool                           // passed the 1.05x filter too
}

// Labels holds the labeling pass over a corpus.
type Labels struct {
	ByLoop map[*ir.Loop]*LoopLabel
	Order  []*LoopLabel // corpus order, for determinism
}

// CollectLabels measures every loop in the corpus at every unroll factor
// (cfg.Runs noisy runs each, median taken), reproducing the paper's fully
// automated label collection. Benchmarks flagged as noisy get
// proportionally noisier measurements.
//
// Benchmarks are labeled concurrently — the paper's collection was "a
// completely unsupervised process" run in parallel across machines — over
// the shared worker pool, every worker compiling into the Timer's
// concurrency-safe per-loop records (so each (loop, unroll) pair is
// compiled once for the whole run, not once per worker). Compilation is
// deterministic and each benchmark's noise stream is seeded by its name,
// so results are bit-identical to a serial pass.
// Interrupted runs can be checkpointed and resumed bit-identically; see
// CollectLabelsResumable.
func CollectLabels(c *loopgen.Corpus, t *sim.Timer, seed int64) (*Labels, error) {
	return CollectLabelsResumable(c, t, seed, nil)
}

func labelBenchmark(b *loopgen.Benchmark, t *sim.Timer, seed int64, errOut *error) []*LoopLabel {
	rng := rand.New(rand.NewSource(seed ^ int64(hashString(b.Name))))
	out := make([]*LoopLabel, 0, len(b.Loops))
	for _, l := range b.Loops {
		cycles, usable, err := t.MeasureAll(l, rng, b.NoiseScale)
		if err != nil {
			*errOut = fmt.Errorf("core: labeling %s/%s: %w", b.Name, l.Name, err)
			return nil
		}
		out = append(out, &LoopLabel{
			Loop:      l,
			Benchmark: b.Name,
			Cycles:    cycles,
			Best:      BestFactor(cycles),
			Usable:    usable,
			Kept:      usable && passesFilter(cycles),
		})
	}
	return out
}

// BestFactor returns a cycle vector's label: the factor with the fewest
// cycles, the smallest such factor on a tie.
func BestFactor(cycles [transform.MaxFactor + 1]int64) int {
	best := 1
	for u := 2; u <= transform.MaxFactor; u++ {
		if cycles[u] < cycles[best] {
			best = u
		}
	}
	return best
}

// passesFilter keeps loops whose optimal factor is measurably better than
// the average over all factors.
func passesFilter(cycles [transform.MaxFactor + 1]int64) bool {
	var sum float64
	for u := 1; u <= transform.MaxFactor; u++ {
		sum += float64(cycles[u])
	}
	avg := sum / transform.MaxFactor
	best := float64(cycles[BestFactor(cycles)])
	return best > 0 && avg/best >= FilterRatio
}

// Dataset builds the training set from the kept loops: the full 38-feature
// vector per loop plus its label and measured cycle vector.
func (lb *Labels) Dataset(t *sim.Timer) *ml.Dataset {
	d := &ml.Dataset{FeatureNames: features.Names[:]}
	for _, ll := range lb.Order {
		if !ll.Kept {
			continue
		}
		e := ml.Example{
			Name:      ll.Loop.Name,
			Benchmark: ll.Benchmark,
			Features:  features.Extract(ll.Loop, t.Cfg.Mach),
			Label:     ll.Best,
		}
		copy(e.Cycles[:], ll.Cycles[:])
		d.Examples = append(d.Examples, e)
	}
	return d
}

// Histogram returns the distribution of optimal unroll factors over the
// kept loops — Figure 3.
func (lb *Labels) Histogram() [transform.MaxFactor + 1]float64 {
	var hist [transform.MaxFactor + 1]float64
	n := 0
	for _, ll := range lb.Order {
		if ll.Kept {
			hist[ll.Best]++
			n++
		}
	}
	if n > 0 {
		for u := range hist {
			hist[u] /= float64(n)
		}
	}
	return hist
}

// KeptCount returns how many loops survived the filters.
func (lb *Labels) KeptCount() int {
	n := 0
	for _, ll := range lb.Order {
		if ll.Kept {
			n++
		}
	}
	return n
}

func hashString(s string) uint32 {
	var h uint32 = 2166136261
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return h
}
