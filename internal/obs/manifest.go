package obs

import (
	"encoding/json"
	"os"
	"runtime"
	"time"
)

// Manifest is the machine-readable record of one run: what was run, on
// what, and every telemetry value at exit. Written by the -manifest flag of
// cmd/experiments and cmd/labelgen; diff two manifests (ignoring the
// wall-clock fields) to compare runs. Metric values under Counters are
// deterministic for a fixed seed and scale, while Phases, Stages, and
// Histograms carry wall-clock measurements that naturally vary.
type Manifest struct {
	Tool string   `json:"tool"`
	Args []string `json:"args,omitempty"`

	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
	Workers   int    `json:"workers"` // worker-pool width used

	Seed   int64 `json:"seed"`
	Config any   `json:"config,omitempty"` // the run's full configuration struct

	Start    time.Time     `json:"start"`
	WallTime time.Duration `json:"wall_time_ns"`

	Phases     []SpanRecord            `json:"phases,omitempty"`
	Stages     []StageStats            `json:"stages,omitempty"`
	Counters   map[string]int64        `json:"counters"`
	Gauges     map[string]int64        `json:"gauges,omitempty"`
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
}

// BuildManifest snapshots the default registry, trace, and stage log into a
// manifest for the finished (or in-flight) run.
func BuildManifest(tool string, args []string, seed int64, workers int, cfg any) *Manifest {
	snap := Default.Snapshot()
	return &Manifest{
		Tool:       tool,
		Args:       args,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		Workers:    workers,
		Seed:       seed,
		Config:     cfg,
		Start:      DefaultTrace.start,
		WallTime:   time.Since(DefaultTrace.start),
		Phases:     DefaultTrace.Spans(),
		Stages:     Stages(),
		Counters:   snap.Counters,
		Gauges:     snap.Gauges,
		Histograms: snap.Histograms,
	}
}

// WriteFile writes the manifest as indented JSON.
func (m *Manifest) WriteFile(path string) error {
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
