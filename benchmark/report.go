package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// results is the file -out writes and -compare reads.
type results struct {
	Stamp     stamp            `json:"stamp"`
	Seed      uint64           `json:"seed"`
	Quick     bool             `json:"quick"`
	Workloads []workloadResult `json:"workloads"`
}

func (r *results) workload(name string) *workloadResult {
	for i := range r.Workloads {
		if r.Workloads[i].Name == name {
			return &r.Workloads[i]
		}
	}
	return nil
}

type workloadResult struct {
	Name           string             `json:"name"`
	Why            string             `json:"why"`
	Seeded         bool               `json:"seeded"`
	CellsAttempted int                `json:"cells_attempted"`
	CellsFailed    int                `json:"cells_failed"`
	FailRatio      float64            `json:"fail_ratio"`
	Failures       []string           `json:"failures,omitempty"`
	Notes          []string           `json:"notes,omitempty"`
	SimDigest      string             `json:"sim_digest"`
	Metrics        map[string]summary `json:"metrics"`          // end to end, untraced, in reference seconds
	Speed          summary            `json:"speed"`            // each rep's slowdown against the reference core
	RawWall        summary            `json:"raw_wall_s"`       // wall_s as measured
	Layers         map[string]summary `json:"layers,omitempty"` // per layer, traced
	Detail         map[string]float64 `json:"detail,omitempty"` // medians of per-design and workload-specific extras
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finalLine is the last line of standard output.
type finalLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// summarize turns the collected children into the workload's metrics.
func (s *state) summarize(traced bool) {
	r := &s.res
	if r.CellsAttempted > 0 {
		r.FailRatio = float64(r.CellsFailed) / float64(r.CellsAttempted)
	}
	if len(s.untraced) > 0 {
		r.SimDigest = s.untraced[0].Digest
	}
	col := func(f func(*untracedReport) float64) []float64 {
		xs := make([]float64, len(s.untraced))
		for i, u := range s.untraced {
			xs[i] = f(u)
		}
		return xs
	}
	r.Metrics = map[string]summary{
		"wall_s":         summarize(col(func(u *untracedReport) float64 { return u.WallS / u.Speed })),
		"accesses_per_s": summarize(col(func(u *untracedReport) float64 { return float64(u.Accesses) * u.Speed / u.WallS })),
		"setup_s":        summarize(col(func(u *untracedReport) float64 { return u.SetupS / u.Speed })),
		"peak_rss_mb":    summarize(col(func(u *untracedReport) float64 { return u.PeakRSSMB })),
	}
	r.Speed = summarize(col(func(u *untracedReport) float64 { return u.Speed }))
	r.RawWall = summarize(col(func(u *untracedReport) float64 { return u.WallS }))
	if !traced {
		return
	}
	layers := map[string][]float64{}
	detail := map[string][]float64{}
	untracedCPU := median(col(func(u *untracedReport) float64 { return u.CPUS / u.Speed }))
	for _, t := range s.traced {
		for k, v := range t.Layers {
			if d, ok := findMetric(perLayer, k); ok && d.isTime() {
				v /= t.Speed
			}
			layers[k] = append(layers[k], v)
		}
		for k, v := range t.Detail {
			detail[k] = append(detail[k], v)
		}
		if untracedCPU > 0 {
			layers["bench.trace_overhead"] = append(layers["bench.trace_overhead"], t.CPUS/t.Speed/untracedCPU-1)
		}
	}
	layers["runtime.alloc_mb"] = col(func(u *untracedReport) float64 { return u.AllocMB })
	layers["runtime.gc_cycles"] = col(func(u *untracedReport) float64 { return u.GCCycles })
	r.Layers = map[string]summary{}
	for k, xs := range layers {
		r.Layers[k] = summarize(xs)
	}
	// GC pauses are zero on the serial workloads, so they are a detail
	// line rather than a declared metric.
	r.Detail = map[string]float64{"runtime.gc_pause_ms": median(col(func(u *untracedReport) float64 { return u.GCPauseMS }))}
	for k, xs := range detail {
		r.Detail[k] = median(xs)
	}
}

func (s *state) print(w io.Writer, traced bool) {
	r := &s.res
	seed := "seeded by -seed"
	if !r.Seeded {
		seed = "harness seeds, -seed unused"
	}
	fmt.Fprintf(w, "\n== %s (%s)\n   %s\n", r.Name, seed, r.Why)
	fmt.Fprintf(w, "   %-34s %-10s %12s %12s %12s %4s %s\n", "metric", "unit", "median", "q1", "q3", "n", "tail")
	row := func(name, unit string, v summary) {
		tail := "-"
		if v.TailP > 0 {
			tail = fmt.Sprintf("p%g=%.6g", v.TailP, v.Tail)
		}
		fmt.Fprintf(w, "   %-34s %-10s %12.6g %12.6g %12.6g %4d %s\n", name, unit, v.Median, v.Q1, v.Q3, v.N, tail)
	}
	for _, d := range endToEnd {
		row(d.Name, d.Unit, r.Metrics[d.Name])
	}
	row("(speed: slowdown vs reference)", "x", r.Speed)
	row("(wall_s as measured)", "s", r.RawWall)
	fmt.Fprintf(w, "   cells_attempted %d  cells_failed %d  fail_ratio %g\n", r.CellsAttempted, r.CellsFailed, r.FailRatio)
	fmt.Fprintf(w, "   sim_digest %s\n", r.SimDigest)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "   FAILED: %s\n", f)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "   note: %s\n", n)
	}
	if !traced {
		return
	}
	fmt.Fprintf(w, "   -- per layer (traced run; runtime.* from the untraced children)\n")
	for _, d := range perLayer {
		if v, ok := r.Layers[d.Name]; ok {
			row(d.Name, d.Unit, v)
		}
	}
	keys := make([]string, 0, len(r.Detail))
	for k := range r.Detail {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "   %-45s %12.6g\n", k, r.Detail[k])
	}
}

// writeOutputs writes results.json and, for a traced run, trace.json.
func writeOutputs(dir string, res *results, states []*state, traced bool) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(dir, "results.json"), res); err != nil {
		return err
	}
	if !traced {
		return nil
	}
	return writeJSON(filepath.Join(dir, "trace.json"), chromeTrace(states))
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// chromeEvent is one event of the Chrome trace-event format, which
// Perfetto and chrome://tracing load.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// chromeTrace exports the first traced pass of each workload, one process
// per workload. Every event carries its span id and parent id in args.
func chromeTrace(states []*state) chromeFile {
	f := chromeFile{DisplayTimeUnit: "ns"}
	for i, s := range states {
		if len(s.traced) == 0 {
			continue
		}
		pid := i + 1
		f.TraceEvents = append(f.TraceEvents, chromeEvent{
			Name: "process_name", Ph: "M", PID: pid, TID: 1, Args: map[string]any{"name": s.w.Name},
		})
		for _, sp := range s.traced[0].Spans {
			args := map[string]any{"id": sp.ID, "parent": sp.Parent}
			for k, v := range sp.Args {
				args[k] = v
			}
			f.TraceEvents = append(f.TraceEvents, chromeEvent{
				Name: sp.Name, Ph: "X", TS: float64(sp.Start) / 1e3, Dur: float64(sp.Dur) / 1e3,
				PID: pid, TID: 1, Args: args,
			})
		}
	}
	return f
}
