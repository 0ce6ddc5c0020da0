package harness

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/metrics"
)

// Figure 7: the performance-factor breakdown. Ten Bumblebee variants
// (single modes, fixed ratios, and one ablation per design decision) run
// every Table II benchmark; each bar is the geomean speedup over the
// no-HBM baseline.

// Fig7Result is one bar.
type Fig7Result struct {
	Label   string
	Speedup float64
}

// Fig7 reproduces the factor breakdown, fanning the 10-variant × 14-bench
// matrix and its no-HBM baseline across the harness worker pool as one
// sweep.
func (h *Harness) Fig7() ([]Fig7Result, error) {
	if h.Shard.Active() {
		return nil, fmt.Errorf("fig7: sharding unsupported (every variant normalizes against the no-HBM baseline, which another shard may own); use -shard with fig8")
	}
	vs := Fig7Variants()
	runs, err := h.sweepRows(h.fig7Rows(vs), h.Benchmarks())
	if err != nil {
		return nil, err
	}
	var out []Fig7Result
	for vi, v := range vs {
		gm, err := metrics.Geomean(speedups(runs[0], runs[vi+1]))
		if err != nil {
			return nil, err
		}
		out = append(out, Fig7Result{Label: v.Label, Speedup: gm})
		h.log("fig7", "variant", v.Label, "speedup", gm)
	}
	return out, nil
}

// fig7Rows returns the sweep rows of Figure 7: the no-HBM baseline as
// row 0, then one Bumblebee row per variant of vs. Every variant runs
// the same per-benchmark trace (see syntheticCell) through the same
// caches, so each benchmark's cells share one filtered stream.
func (h *Harness) fig7Rows(vs []Variant) []row {
	rows := []row{h.baselineRow()}
	for _, v := range vs {
		sys := h.System()
		v.Apply(&sys)
		rows = append(rows, row{exp: "fig7", label: v.Label, design: config.DesignBumblebee, sys: sys})
	}
	return rows
}

// Fig7Table renders the breakdown like the figure.
func Fig7Table(results []Fig7Result) string {
	out := "== Figure 7: performance factors breakdown (geomean speedup vs no-HBM) ==\n"
	for _, r := range results {
		out += fmt.Sprintf("%-10s %8.3f\n", r.Label, r.Speedup)
	}
	return out
}
