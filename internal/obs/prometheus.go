package obs

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"repro/internal/telemetry"
)

// Prometheus exposition (text format 0.0.4), written by hand so the
// simulator stays dependency-free. Metric families are rendered in a
// fixed order and label values are sorted, so the body for a given sweep
// state is byte-deterministic — the golden test relies on that.

// latQuantiles are the summary quantiles exported per (design, tier).
var latQuantiles = []struct {
	label string
	q     float64
}{
	{"0.5", 0.50},
	{"0.95", 0.95},
	{"0.99", 0.99},
}

// escapeLabel escapes a Prometheus label value (backslash, quote, newline).
func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// sanitizeName maps an arbitrary counter name onto the Prometheus metric
// name alphabet [a-zA-Z0-9_:]. Our counter names are already snake_case;
// this is a guard, not a transliterator.
func sanitizeName(v string) string {
	var b strings.Builder
	for i := 0; i < len(v); i++ {
		c := v[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9' && i > 0:
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

func fmtFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders the sweep's live state in Prometheus text
// format. It holds the sweep lock only long enough to copy the state.
func (s *Sweep) WritePrometheus(w io.Writer) error {
	if s == nil {
		_, err := io.WriteString(w, "# bumblebee sweep metrics: no sweep active\n# EOF\n")
		return err
	}
	s.mu.Lock()
	snap := s.snapshotLocked()
	type designCopy struct {
		name     string
		agg      designAgg
		counters map[string]uint64
		order    []string
	}
	designs := make([]designCopy, 0, len(s.order))
	names := append([]string(nil), s.order...)
	sort.Strings(names)
	for _, name := range names {
		d := s.designs[name]
		dc := designCopy{name: name, agg: *d, counters: make(map[string]uint64, len(d.counters))}
		for k, v := range d.counters {
			dc.counters[k] = v
		}
		dc.order = append([]string(nil), d.order...)
		sort.Strings(dc.order)
		designs = append(designs, dc)
	}
	s.mu.Unlock()

	var b strings.Builder
	sweepLabel := fmt.Sprintf("{sweep=%q}", escapeLabel(snap.Name))
	gauge := func(name, help string, value string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s%s %s\n", name, help, name, name, sweepLabel, value)
	}
	gauge("bb_sweep_cells_planned", "Simulation cells planned for the sweep.", strconv.FormatUint(snap.Planned, 10))
	gauge("bb_sweep_cells_done", "Simulation cells completed (failures included).", strconv.FormatUint(snap.Done, 10))
	gauge("bb_sweep_cells_failed", "Simulation cells that failed.", strconv.FormatUint(snap.Failed, 10))
	gauge("bb_sweep_accesses_total", "Simulated memory references completed across all cells.", strconv.FormatUint(snap.Accesses, 10))
	gauge("bb_sweep_elapsed_seconds", "Wall-clock seconds since the sweep started.", fmtFloat(snap.Elapsed.Seconds()))
	gauge("bb_sweep_accesses_per_second", "Simulated memory references per wall-clock second.", fmtFloat(snap.AccessesPerSec))
	gauge("bb_sweep_eta_seconds", "Estimated wall-clock seconds until the sweep completes (0 when unknown).", fmtFloat(snap.ETA.Seconds()))
	gauge("bb_sweep_cells_resumed", "Cells served from the checkpoint journal instead of re-run.", strconv.FormatUint(snap.Resumed, 10))
	gauge("bb_sweep_journal_fsyncs_total", "Checkpoint journal fsyncs issued.", strconv.FormatUint(snap.JournalFsyncs, 10))
	ckptAge := "-1"
	if snap.Checkpointed {
		ckptAge = fmtFloat(snap.CheckpointAge.Seconds())
	}
	gauge("bb_sweep_checkpoint_age_seconds", "Seconds since the latest checkpoint append (-1 when no checkpoint has been written).", ckptAge)

	if len(designs) > 0 {
		fmt.Fprintf(&b, "# HELP bb_design_cells_done Cells completed per design (failures included).\n# TYPE bb_design_cells_done gauge\n")
		for _, d := range designs {
			fmt.Fprintf(&b, "bb_design_cells_done{design=%q} %d\n", escapeLabel(d.name), d.agg.cells)
		}
		fmt.Fprintf(&b, "# HELP bb_design_counter_total Aggregate design counters summed over completed cells.\n# TYPE bb_design_counter_total gauge\n")
		for _, d := range designs {
			for _, c := range d.order {
				fmt.Fprintf(&b, "bb_design_counter_total{counter=%q,design=%q} %d\n",
					escapeLabel(sanitizeName(c)), escapeLabel(d.name), d.counters[c])
			}
		}
		anyLat := false
		for _, d := range designs {
			if d.agg.hasLat {
				anyLat = true
				break
			}
		}
		if anyLat {
			fmt.Fprintf(&b, "# HELP bb_design_latency_cycles Per-tier service latency in CPU cycles, merged over completed cells.\n# TYPE bb_design_latency_cycles summary\n")
			for _, d := range designs {
				if !d.agg.hasLat {
					continue
				}
				for t := telemetry.Tier(0); t < telemetry.NumTiers; t++ {
					h := &d.agg.lat[t]
					if h.Count == 0 {
						continue
					}
					for _, q := range latQuantiles {
						fmt.Fprintf(&b, "bb_design_latency_cycles{design=%q,tier=%q,quantile=%q} %d\n",
							escapeLabel(d.name), t.String(), q.label, h.Quantile(q.q))
					}
					fmt.Fprintf(&b, "bb_design_latency_cycles_sum{design=%q,tier=%q} %d\n", escapeLabel(d.name), t.String(), h.Sum)
					fmt.Fprintf(&b, "bb_design_latency_cycles_count{design=%q,tier=%q} %d\n", escapeLabel(d.name), t.String(), h.Count)
				}
			}
		}
	}

	// Live alert state, when a monitor is attached: one gauge sample per
	// firing (rule, design, bench) plus the transition counter. Families
	// render whenever a monitor exists so the schema is stable.
	if s.Alerts != nil {
		fmt.Fprintf(&b, "# HELP bb_alerts_firing Alert rules currently firing, by rule and sweep cell.\n# TYPE bb_alerts_firing gauge\n")
		for _, g := range s.Alerts.GaugeSamples() {
			fmt.Fprintf(&b, "bb_alerts_firing{bench=%q,design=%q,rule=%q} %d\n",
				escapeLabel(g.Bench), escapeLabel(g.Design), escapeLabel(g.Rule), g.Value)
		}
		fmt.Fprintf(&b, "# HELP bb_alerts_total Alert firing transitions since the sweep started.\n# TYPE bb_alerts_total counter\nbb_alerts_total %d\n", s.Alerts.Total())
	}

	// OpenMetrics-compatible terminator: scrapers that speak the newer
	// grammar use it to detect truncated bodies.
	b.WriteString("# EOF\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// Handler returns the /metrics HTTP handler for the sweep.
func (s *Sweep) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		// The sweep keeps running whatever happens to this response; an
		// aborted scrape is the scraper's problem.
		_ = s.WritePrometheus(w)
	})
}
