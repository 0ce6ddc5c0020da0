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
// matrix across the harness worker pool.
func (h *Harness) Fig7() ([]Fig7Result, error) {
	bs := h.Benchmarks()
	base, err := h.runBaseline(bs)
	if err != nil {
		return nil, err
	}
	vs := Fig7Variants()
	// Every variant runs Bumblebee on the same per-benchmark trace (see
	// syntheticCell) through the same caches, so each benchmark's ten
	// cells share one filtered stream.
	syss := make([]config.System, len(vs))
	for vi, v := range vs {
		syss[vi] = h.System()
		v.Apply(&syss[vi])
	}
	ids := grid(vs, bs, func(vi, bi int) string {
		return cellID("fig7", vs[vi].Label, bs[bi].Profile.Name)
	})
	flat, err := sweepShared(h, ids,
		func(i int) shared {
			return h.syntheticCell(config.DesignBumblebee, syss[i/len(bs)], bs[i%len(bs)])
		},
		func(i int, r RunResult, err error) (float64, error) {
			v, b := vs[i/len(bs)], bs[i%len(bs)].Profile.Name
			if err != nil {
				return 0, fmt.Errorf("fig7 %s/%s: %w", v.Label, b, err)
			}
			return r.CPU.IPC() / base.ipc[b], nil
		})
	if err != nil {
		return nil, err
	}
	speedups := byRow(flat, len(vs), len(bs))
	var out []Fig7Result
	for vi, v := range vs {
		gm, err := metrics.Geomean(speedups[vi])
		if err != nil {
			return nil, err
		}
		out = append(out, Fig7Result{Label: v.Label, Speedup: gm})
		h.log("fig7", "variant", v.Label, "speedup", gm)
	}
	return out, nil
}

// Fig7Table renders the breakdown like the figure.
func Fig7Table(results []Fig7Result) string {
	out := "== Figure 7: performance factors breakdown (geomean speedup vs no-HBM) ==\n"
	for _, r := range results {
		out += fmt.Sprintf("%-10s %8.3f\n", r.Label, r.Speedup)
	}
	return out
}
