package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"
)

// spec is the part of BENCHMARK.json the harness reads: the metric names
// and units it must print.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (*spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// metric is one reported value. Samples is the count behind it (ops,
// requests or calls); Note says what it is when the name alone does not.
type metric struct {
	Value   float64
	Unit    string
	Samples int
	Note    string
}

// report collects one workload's outcome.
type report struct {
	Workload  string
	Attempted int
	Failed    int
	Env       envRecord
	Metrics   map[string]metric
	Info      []string // extra lines for the human-readable report
}

func newReport(workload string) *report {
	return &report{Workload: workload, Metrics: map[string]metric{}}
}

func (r *report) set(name string, v float64, unit string, samples int, note string) {
	r.Metrics[name] = metric{Value: v, Unit: unit, Samples: samples, Note: note}
}

func (r *report) info(format string, args ...any) {
	r.Info = append(r.Info, fmt.Sprintf(format, args...))
}

// check records one op's output verdict.
func (r *report) check(ok bool) {
	r.Attempted++
	if !ok {
		r.Failed++
	}
}

// writeHuman prints every metric with its unit and sample count, then the
// environment record and the extra lines.
func (r *report) writeHuman(w io.Writer, trace bool) {
	mode := "untraced"
	if trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "== workload %s (%s): %d ops attempted, %d failed\n", r.Workload, mode, r.Attempted, r.Failed)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		line := fmt.Sprintf("  %-34s %14.6g %-6s n=%d", n, m.Value, m.Unit, m.Samples)
		if m.Note != "" {
			line += "  (" + m.Note + ")"
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "  env: %s\n", r.Env)
	for _, l := range r.Info {
		fmt.Fprintf(w, "  %s\n", l)
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// result assembles the machine-readable last line: exactly the declared
// metrics, in their declared units. A layer the workload never enters
// reads zero; a declared end-to-end metric the workload did not produce is
// an error.
func (r *report) result(declared []metricSpec, zeroFill bool) (jsonResult, error) {
	out := jsonResult{
		Correct:   r.Attempted > 0 && r.Failed == 0,
		Attempted: r.Attempted,
		Failed:    r.Failed,
		Metrics:   map[string]jsonMetric{},
	}
	for _, d := range declared {
		m, ok := r.Metrics[d.Name]
		switch {
		case !ok && zeroFill:
			m = metric{Unit: d.Unit}
		case !ok:
			return out, fmt.Errorf("workload %s produced no %s", r.Workload, d.Name)
		case m.Unit != d.Unit:
			return out, fmt.Errorf("metric %s: unit %q, BENCHMARK.json declares %q", d.Name, m.Unit, d.Unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return out, fmt.Errorf("metric %s is not finite", d.Name)
		}
		out.Metrics[d.Name] = jsonMetric{Value: m.Value, Unit: d.Unit}
	}
	return out, nil
}

// Timing helpers.

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailSupported reports whether at least ten samples lie beyond the
// q-quantile of n samples — the least a tail figure needs to repeat.
func tailSupported(n int, q float64) bool {
	return float64(n)*(1-q) >= 10
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
