package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside the program.
// Its layer is the name's first dot-separated element. A replayed span was
// timed on a later, idle re-run of the call and laid into its parent's
// interval; the untimed remainder of the parent stays the parent's own.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // -1 for an op's root span
	Op       int    `json:"op"`     // op id; -1 for spans outside any op
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	CPU      int64  `json:"cpu_ns,omitempty"` // process CPU over the span
	Replayed bool   `json:"replayed,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

func (s *span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// tracer keeps spans in memory and writes them out when the run ends. A
// nil *tracer records nothing, so untraced ops call the same code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(op, parent int, name string, withCPU bool) int {
	if t == nil {
		return -1
	}
	s := span{Parent: parent, Op: op, Name: name, Start: t.now()}
	if withCPU {
		s.CPU = -int64(processCPU())
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans)
	t.spans = append(t.spans, s)
	return s.ID
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.End = now
	if s.CPU < 0 {
		s.CPU += int64(processCPU())
	}
}

// call times fn as a span and returns fn's error.
func (t *tracer) call(op, parent int, name string, fn func() error) error {
	id := t.begin(op, parent, name, true)
	err := fn()
	t.end(id)
	return err
}

// replayed lays spans of the given durations end to end from the start
// of parent, marking them as replays.
func (t *tracer) replayed(parent int, names []string, durs []time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent]
	at := p.Start
	for i, name := range names {
		s := span{ID: len(t.spans), Parent: parent, Op: p.Op, Name: name, Start: at, End: at + int64(durs[i]), Replayed: true}
		t.spans = append(t.spans, s)
		at = s.End
	}
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover.
func selfTimes(spans []span) []time.Duration {
	kids := map[int][]int{}
	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			kids[p] = append(kids[p], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i := range spans {
		self[i] = spans[i].dur() - covered(spans, kids[i], spans[i].Start, spans[i].End)
	}
	return self
}

// covered is the length of the union of the children's intervals, clipped
// to [lo, hi].
func covered(spans []span, kids []int, lo, hi int64) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		s, e := max(spans[k].Start, lo), min(spans[k].End, hi)
		if e > s {
			iv = append(iv, [2]int64{s, e})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curS, curE int64
	curS, curE = -1, -1
	for _, x := range iv {
		if x[0] > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = x[0], x[1]
		} else if x[1] > curE {
			curE = x[1]
		}
	}
	if curE > curS {
		total += curE - curS
	}
	return time.Duration(total)
}

// opBreakdown is one op's traced time split by layer.
type opBreakdown struct {
	Total time.Duration            // root span duration
	Self  map[string]time.Duration // layer → self time, root excluded
}

// coverage is the share of the op's time that some layer's span, not the
// harness glue around the calls, accounts for.
func (b opBreakdown) coverage() float64 {
	if b.Total <= 0 {
		return 0
	}
	var in time.Duration
	for _, d := range b.Self {
		in += d
	}
	return float64(in) / float64(b.Total)
}

// breakdowns splits every op whose root span is named root.
func breakdowns(spans []span, root string) []opBreakdown {
	self := selfTimes(spans)
	byOp := map[int]*opBreakdown{}
	var order []int
	for i := range spans {
		s := &spans[i]
		if s.Op < 0 {
			continue
		}
		b := byOp[s.Op]
		if b == nil {
			b = &opBreakdown{Self: map[string]time.Duration{}}
			byOp[s.Op] = b
			order = append(order, s.Op)
		}
		if s.Parent < 0 {
			if s.Name == root {
				b.Total = s.dur()
			}
			continue
		}
		b.Self[s.layer()] += self[i]
	}
	out := make([]opBreakdown, 0, len(order))
	for _, op := range order {
		if b := byOp[op]; b.Total > 0 {
			out = append(out, *b)
		}
	}
	return out
}

// reportBreakdowns prints the median per-op self time of each layer and
// the median coverage.
func reportBreakdowns(r *report, bs []opBreakdown, layers []string) {
	if len(bs) == 0 {
		return
	}
	totals := make([]float64, len(bs))
	covs := make([]float64, len(bs))
	for i, b := range bs {
		totals[i] = ms(b.Total)
		covs[i] = b.coverage()
	}
	for _, l := range layers {
		vals := make([]float64, len(bs))
		for i, b := range bs {
			vals[i] = ms(b.Self[l])
		}
		r.set("self."+l+"_ms", median(vals), "ms", len(bs), "median self time per traced op")
	}
	r.set("trace.op_ms", median(totals), "ms", len(bs), "median traced op")
	r.set("trace.coverage", median(covs), "1", len(bs), "share of traced op time inside layer spans")
}

// selfLayers are the layers whose op-level self times every traced run
// reports.
var selfLayers = []string{"loopgen", "sim", "features", "core", "ml", "lang", "unroll", "serve", "wire"}

// writeSpans stores a traced run's spans under spansDir and says where.
func (o *options) writeSpans(tr *tracer, r *report) error {
	path := filepath.Join(spansDir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
	if err := tr.write(path); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	r.info("spans: %d written to %s", len(tr.snapshot()), path)
	return nil
}
