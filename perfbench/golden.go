package main

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// readSections loads one golden file per section name from dir. With
// allowMissing (golden regeneration), absent files read as empty.
func readSections(dir string, names []string, allowMissing bool) (map[string]string, error) {
	out := make(map[string]string, len(names))
	for _, n := range names {
		raw, err := os.ReadFile(filepath.Join(dir, n+".txt"))
		if errors.Is(err, fs.ErrNotExist) && allowMissing {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("golden: %w", err)
		}
		out[n] = string(raw)
	}
	return out, nil
}

func writeSections(dir string, sections map[string]string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for n, s := range sections {
		if err := os.WriteFile(filepath.Join(dir, n+".txt"), []byte(s), 0o644); err != nil {
			return fmt.Errorf("golden: %w", err)
		}
	}
	return nil
}

// repeatSetup runs the workload's set-up n times, each from a collected
// heap, and returns the median duration in seconds; the state the last run
// built is what the op uses.
func repeatSetup(n int, fn func() error) (float64, error) {
	secs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		runtime.GC()
		start := time.Now()
		if err := fn(); err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return median(secs), nil
}

// peakTracker records the RSS high-water mark of each timed op (or
// phase): the mark is reset before it and read after it.
type peakTracker struct {
	vals []float64
	err  error
}

func (p *peakTracker) start() {
	if err := resetPeakRSS(); err != nil && p.err == nil {
		p.err = err
	}
}

func (p *peakTracker) stop() {
	v, err := peakRSSMiB()
	if err != nil {
		p.err = err
		return
	}
	p.vals = append(p.vals, v)
}

// setEndToEndCommon adds the metrics every workload reports the same way.
func setEndToEndCommon(r *report, peaks *peakTracker) {
	if peaks.err != nil {
		r.info("peak RSS: %v; values may be the process's high-water mark so far", peaks.err)
	}
	if len(peaks.vals) > 0 {
		r.set("peak_rss_mib", median(peaks.vals), "MiB", len(peaks.vals), "RSS high-water mark of each timed op, or of serve's timed phase; median")
	}
	if r.Attempted > 0 {
		r.set("ok_share", float64(r.Attempted-r.Failed)/float64(r.Attempted), "1", r.Attempted,
			"ops whose output matched the goldens, over ops attempted")
	}
}
