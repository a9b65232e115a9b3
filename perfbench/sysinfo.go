package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTicks is the machine-wide first line of /proc/stat.
type cpuTicks struct {
	total, steal uint64
}

// readCPUTicks sums user..steal (guest time is already inside user and
// nice) and keeps steal apart: the share of time the hypervisor ran
// another tenant on this machine's CPUs.
func readCPUTicks() (cpuTicks, error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}, err
	}
	line, _, _ := bytes.Cut(raw, []byte{'\n'})
	f := strings.Fields(string(line))
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	var t cpuTicks
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseUint(f[i], 10, 64)
		if err != nil {
			return cpuTicks{}, fmt.Errorf("/proc/stat field %d: %w", i, err)
		}
		t.total += v
		if i == 8 {
			t.steal = v
		}
	}
	return t, nil
}

// processCPU is the user plus system CPU time this process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// resetPeakRSS restarts the high-water mark at the current RSS, so a
// timed op's peak excludes what came before it.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// window records the environment over one timed phase: wall time, the
// host's CPU steal and this process's CPU time.
type window struct {
	start  time.Time
	cpu    time.Duration
	ticks  cpuTicks
	ticksE error
}

func openWindow() window {
	t, err := readCPUTicks()
	return window{start: time.Now(), cpu: processCPU(), ticks: t, ticksE: err}
}

// envRecord is what a run needs to explain a noisy pair of runs.
type envRecord struct {
	Wall       time.Duration
	CPU        time.Duration
	StealShare float64 // -1 when /proc/stat is unreadable
	NumCPU     int
	GOMAXPROCS int
	GoVersion  string
}

func (w window) close() envRecord {
	r := envRecord{
		Wall:       time.Since(w.start),
		CPU:        processCPU() - w.cpu,
		StealShare: -1,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
	if t, err := readCPUTicks(); err == nil && w.ticksE == nil && t.total > w.ticks.total {
		r.StealShare = float64(t.steal-w.ticks.steal) / float64(t.total-w.ticks.total)
	}
	return r
}

// cpuUtil is process CPU over the capacity GOMAXPROCS offered.
func (r envRecord) cpuUtil() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return r.CPU.Seconds() / (r.Wall.Seconds() * float64(r.GOMAXPROCS))
}

func (r envRecord) String() string {
	steal := "unknown"
	if r.StealShare >= 0 {
		steal = fmt.Sprintf("%.2f%%", 100*r.StealShare)
	}
	return fmt.Sprintf("timed phase %.3fs wall, %.3fs process CPU (util %.2f), host steal %s, nproc %d, GOMAXPROCS %d, %s",
		r.Wall.Seconds(), r.CPU.Seconds(), r.cpuUtil(), steal, r.NumCPU, r.GOMAXPROCS, r.GoVersion)
}
