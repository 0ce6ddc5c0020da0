package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/cache"
	"repro/internal/harness"
)

// setupPasses is how many constructor passes one untraced child times;
// it reports their median.
const setupPasses = 5

// untracedReport is one untraced child's measurement of one rep. Times
// are as measured; the parent divides them by Speed.
type untracedReport struct {
	Speed     float64 `json:"speed"` // see calib.go
	WallS     float64 `json:"wall_s"`
	CPUS      float64 `json:"cpu_s"`
	Accesses  uint64  `json:"accesses"`
	SetupS    float64 `json:"setup_s"`
	PeakRSSMB float64 `json:"peak_rss_mb"`
	AllocMB   float64 `json:"alloc_mb"`
	GCCycles  float64 `json:"gc_cycles"`
	GCPauseMS float64 `json:"gc_pause_ms"`

	Cells       int               `json:"cells"`
	Failed      int               `json:"failed"` // cells that errored or broke an invariant
	Failures    []string          `json:"failures,omitempty"`
	Digest      string            `json:"sim_digest"`
	CellDigests map[string]string `json:"cell_digests"`
}

// runUntraced times the workload's production call with nothing attached
// to the harness, then setupPasses constructor passes over its cells.
func runUntraced(e *env) (*untracedReport, error) {
	cells := e.w.cells(e)
	alu0, chase0 := calibrate(e.h.Parallel)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	t0 := time.Now()
	out, callErr := e.w.call(e)
	wall := time.Since(t0)
	cpuS := cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	alu1, chase1 := calibrate(e.h.Parallel)
	rep := &untracedReport{
		Speed:     speed(alu0, chase0, alu1, chase1),
		WallS:     wall.Seconds(),
		CPUS:      cpuS,
		PeakRSSMB: rss,
		AllocMB:   float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20),
		GCCycles:  float64(ms1.NumGC - ms0.NumGC),
		GCPauseMS: float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6,
		Cells:     len(cells),
	}
	if callErr != nil {
		rep.Failed, rep.Failures = len(cells), []string{callErr.Error()}
		return rep, nil
	}
	for _, r := range out.Runs {
		rep.Accesses += r.CPU.Accesses
		if bad := checkCell(r, e.planned); len(bad) > 0 {
			rep.Failed++
			rep.Failures = append(rep.Failures, bad...)
		}
	}
	// Fig8 does not return its baseline cells; their accesses are the
	// planned count (the normalized tables in sim_digest cover them).
	rep.Accesses += uint64(out.Hidden) * e.planned
	if len(out.Runs)+out.Hidden != len(cells) {
		rep.Failed = len(cells)
		rep.Failures = append(rep.Failures, fmt.Sprintf("call returned %d+%d cells, planned %d",
			len(out.Runs), out.Hidden, len(cells)))
	}
	rep.Digest = simDigest(out.Runs, out.Extra)
	rep.CellDigests = cellDigests(out.Runs)

	setups := make([]float64, setupPasses)
	for i := range setups {
		d, err := setupPass(e, cells)
		if err != nil {
			return nil, err
		}
		setups[i] = d.Seconds()
	}
	rep.SetupS = median(setups)
	return rep, nil
}

// setupPass constructs every cell's design, hierarchy and trace source
// once, as the production path does before its first access.
func setupPass(e *env, cells []cellSpec) (time.Duration, error) {
	var closers []io.Closer
	defer func() {
		for _, c := range closers {
			c.Close()
		}
	}()
	t0 := time.Now()
	for _, c := range cells {
		mem, err := harness.Build(c.Design, e.sys)
		if err != nil {
			return 0, err
		}
		if _, err := cache.NewHierarchy(e.sys.Caches); err != nil {
			return 0, err
		}
		_, f, err := openCell(e, c, mem)
		if err != nil {
			return 0, err
		}
		if f != nil {
			closers = append(closers, f)
		}
	}
	return time.Since(t0), nil
}

// cpuTime is the process's user plus system CPU time in seconds.
func cpuTime() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}
