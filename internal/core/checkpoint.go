package core

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"metaopt/internal/faults"
	"metaopt/internal/ir"
	"metaopt/internal/loopgen"
	"metaopt/internal/obs"
	"metaopt/internal/par"
	"metaopt/internal/sim"
	"metaopt/internal/transform"
)

var mBenchesResumed = obs.C("core.benchmarks_resumed")

// CheckpointVersion is the labeling checkpoint format this build writes.
const CheckpointVersion = 1

// LoopRecord is one loop's measured cycle vector inside a checkpoint.
// Only the raw measurements are stored; Best, Usable, and Kept are
// recomputed on resume so a checkpoint can never disagree with the
// labeling code that loads it.
type LoopRecord struct {
	Name   string  `json:"name"`
	Cycles []int64 `json:"cycles"` // index 1..MaxFactor; [0] unused
}

// Checkpoint is a partial labeling run: the configuration that produced it
// plus the cycle measurements of every completed benchmark. Because corpus
// generation is deterministic in the seed and each benchmark's noise
// stream is seeded by its name, resuming from a checkpoint yields output
// bit-identical to an uninterrupted run.
type Checkpoint struct {
	Version int    `json:"version"`
	Seed    int64  `json:"seed"`
	Runs    int    `json:"runs"`
	SWP     bool   `json:"swp"`
	Machine string `json:"machine"`
	// Workers records the parallelism of the run that wrote the checkpoint.
	// It is provenance only: worker count never affects which cycles are
	// measured (each benchmark's noise stream is seeded by its name), so
	// Compatible deliberately ignores it and a checkpoint written with
	// -workers 1 resumes cleanly under -workers 32.
	Workers    int                     `json:"workers,omitempty"`
	Benchmarks map[string][]LoopRecord `json:"benchmarks"`
}

// NewCheckpoint returns an empty checkpoint recording the run's
// configuration.
func NewCheckpoint(t *sim.Timer, seed int64) *Checkpoint {
	return &Checkpoint{
		Version:    CheckpointVersion,
		Seed:       seed,
		Runs:       t.Cfg.Runs,
		SWP:        t.Cfg.SWP,
		Machine:    t.Cfg.Mach.Name,
		Workers:    par.Limit(),
		Benchmarks: map[string][]LoopRecord{},
	}
}

// Compatible reports whether the checkpoint was produced by the same
// configuration as the run trying to resume from it. Resuming under a
// different seed, machine, or measurement setup would splice measurements
// from two different experiments into one dataset, so it is refused.
// Worker count (Checkpoint.Workers) is not label-affecting configuration
// and is never compared.
func (ck *Checkpoint) Compatible(t *sim.Timer, seed int64) error {
	if ck.Version > CheckpointVersion {
		return fmt.Errorf("core: checkpoint uses format v%d but this build understands up to v%d", ck.Version, CheckpointVersion)
	}
	switch {
	case ck.Seed != seed:
		return fmt.Errorf("core: checkpoint was collected with seed %d, this run uses %d", ck.Seed, seed)
	case ck.Runs != t.Cfg.Runs:
		return fmt.Errorf("core: checkpoint was collected with %d runs per timing, this run uses %d", ck.Runs, t.Cfg.Runs)
	case ck.SWP != t.Cfg.SWP:
		return fmt.Errorf("core: checkpoint was collected with swp=%v, this run uses swp=%v", ck.SWP, t.Cfg.SWP)
	case ck.Machine != t.Cfg.Mach.Name:
		return fmt.Errorf("core: checkpoint was collected on machine %q, this run targets %q", ck.Machine, t.Cfg.Mach.Name)
	}
	return nil
}

// Encode writes the checkpoint as indented JSON. Map keys marshal sorted,
// so identical progress always encodes to identical bytes.
func (ck *Checkpoint) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(ck)
}

// DecodeCheckpoint reads a checkpoint written by Encode.
func DecodeCheckpoint(r io.Reader) (*Checkpoint, error) {
	var ck Checkpoint
	if err := json.NewDecoder(r).Decode(&ck); err != nil {
		return nil, fmt.Errorf("core: decode checkpoint: %w", err)
	}
	if ck.Benchmarks == nil {
		ck.Benchmarks = map[string][]LoopRecord{}
	}
	return &ck, nil
}

// Progress wires periodic checkpointing into a labeling run. Checkpoint
// must be non-nil (start from NewCheckpoint, or from DecodeCheckpoint to
// resume); benchmarks already recorded in it are reconstituted instead of
// re-measured. Save, when set, is called with the updated checkpoint after
// every Every completed benchmarks — and once more on any labeling error,
// so an aborted run keeps its progress. Save must write atomically
// (internal/atomicio) for the checkpoint itself to be crash-safe.
type Progress struct {
	Checkpoint *Checkpoint
	Save       func(*Checkpoint) error
	Every      int // benchmarks between saves; <= 0 means 8
}

// CollectLabelsResumable is CollectLabels with checkpointing: completed
// benchmarks recorded in pr.Checkpoint are skipped (their stored cycle
// vectors are re-attached to the regenerated corpus), newly measured ones
// are added to it, and pr.Save persists progress along the way. The
// resulting Labels are bit-identical to an uninterrupted CollectLabels run
// because reconstitution recomputes every derived field from the stored
// cycles and the noise streams of the remaining benchmarks are independent,
// seeded by benchmark name. A nil pr degrades to plain CollectLabels.
func CollectLabelsResumable(c *loopgen.Corpus, t *sim.Timer, seed int64, pr *Progress) (*Labels, error) {
	sp := obs.Begin("labels.collect")
	defer sp.End()
	if pr != nil && pr.Checkpoint == nil {
		return nil, fmt.Errorf("core: Progress needs a Checkpoint (use NewCheckpoint or DecodeCheckpoint)")
	}
	every := 8
	if pr != nil && pr.Every > 0 {
		every = pr.Every
	}

	var (
		mu        sync.Mutex
		sinceSave int
	)
	perBench := make([][]*LoopLabel, len(c.Benchmarks))
	err := par.ForEach(len(c.Benchmarks), func(bi int) error {
		b := c.Benchmarks[bi]
		if pr != nil {
			mu.Lock()
			recs, done := pr.Checkpoint.Benchmarks[b.Name]
			mu.Unlock()
			if done {
				lls, err := reconstitute(b, t, recs)
				if err != nil {
					return err
				}
				perBench[bi] = lls
				mBenchesResumed.Inc()
				return nil
			}
		}
		if err := faults.Check("labels.benchmark"); err != nil {
			return fmt.Errorf("core: labeling %s: %w", b.Name, err)
		}
		var benchErr error
		lls := labelBenchmark(b, t, seed, &benchErr)
		if benchErr != nil {
			return benchErr
		}
		perBench[bi] = lls
		if pr != nil {
			mu.Lock()
			pr.Checkpoint.Benchmarks[b.Name] = records(lls)
			sinceSave++
			var saveErr error
			if pr.Save != nil && sinceSave >= every {
				saveErr = pr.Save(pr.Checkpoint)
				sinceSave = 0
			}
			mu.Unlock()
			if saveErr != nil {
				return fmt.Errorf("core: checkpoint: %w", saveErr)
			}
		}
		return nil
	})
	// Persist whatever completed — on success so the on-disk checkpoint is
	// whole, on failure so the work done before the error survives it.
	if pr != nil && pr.Save != nil && sinceSave > 0 {
		mu.Lock()
		saveErr := pr.Save(pr.Checkpoint)
		mu.Unlock()
		if saveErr != nil && err == nil {
			err = fmt.Errorf("core: checkpoint: %w", saveErr)
		}
	}
	if err != nil {
		return nil, err
	}

	lb := &Labels{ByLoop: map[*ir.Loop]*LoopLabel{}}
	kept := 0
	for bi := range c.Benchmarks {
		for _, ll := range perBench[bi] {
			lb.ByLoop[ll.Loop] = ll
			lb.Order = append(lb.Order, ll)
			if ll.Kept {
				kept++
			}
		}
	}
	mLoopsLabeled.Add(int64(len(lb.Order)))
	mLoopsKept.Add(int64(kept))
	return lb, nil
}

// records converts a benchmark's labels to checkpoint form.
func records(lls []*LoopLabel) []LoopRecord {
	out := make([]LoopRecord, len(lls))
	for i, ll := range lls {
		out[i] = LoopRecord{Name: ll.Loop.Name, Cycles: append([]int64(nil), ll.Cycles[:]...)}
	}
	return out
}

// reconstitute re-attaches a checkpointed benchmark's measurements to the
// regenerated corpus, recomputing Best/Usable/Kept from the stored cycles.
// Any mismatch with the corpus means the checkpoint came from a different
// generation (stale file, wrong seed slipped past Compatible) and is fatal:
// splicing it in would corrupt the dataset silently.
func reconstitute(b *loopgen.Benchmark, t *sim.Timer, recs []LoopRecord) ([]*LoopLabel, error) {
	if len(recs) != len(b.Loops) {
		return nil, fmt.Errorf("core: checkpoint records %d loops for %s, corpus has %d: stale checkpoint", len(recs), b.Name, len(b.Loops))
	}
	out := make([]*LoopLabel, 0, len(b.Loops))
	for i, l := range b.Loops {
		r := recs[i]
		if r.Name != l.Name {
			return nil, fmt.Errorf("core: checkpoint loop %q at %s[%d], corpus has %q: stale checkpoint", r.Name, b.Name, i, l.Name)
		}
		if len(r.Cycles) != transform.MaxFactor+1 {
			return nil, fmt.Errorf("core: checkpoint loop %s/%s has %d cycle entries, want %d", b.Name, r.Name, len(r.Cycles), transform.MaxFactor+1)
		}
		ll := &LoopLabel{Loop: l, Benchmark: b.Name}
		copy(ll.Cycles[:], r.Cycles)
		ll.Best = BestFactor(ll.Cycles)
		ll.Usable = ll.Cycles[1] >= t.Cfg.MinCycles
		ll.Kept = ll.Usable && passesFilter(ll.Cycles)
		out = append(out, ll)
	}
	return out, nil
}
