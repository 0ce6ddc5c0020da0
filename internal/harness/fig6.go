package harness

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/metrics"
)

// Figure 6: the block-size/page-size design-space sweep. The paper sweeps
// blocks of 1/2/4 KB against pages of 64/96/128 KB, reports the geomean
// normalized IPC of every Table II benchmark for each configuration, and
// picks 2 KB / 64 KB (best performance with metadata still under the
// 512 KB SRAM budget).

// Fig6Config is one point of the sweep.
type Fig6Config struct {
	BlockKB, PageKB uint64
}

// Fig6Configs returns the paper's nine configurations in figure order.
func Fig6Configs() []Fig6Config {
	var out []Fig6Config
	for _, blk := range []uint64{1, 2, 4} {
		for _, pg := range []uint64{64, 96, 128} {
			out = append(out, Fig6Config{BlockKB: blk, PageKB: pg})
		}
	}
	return out
}

// Label renders a configuration like the figure's x axis ("2-64").
func (c Fig6Config) Label() string { return fmt.Sprintf("%d-%d", c.BlockKB, c.PageKB) }

// Fig6Result pairs a configuration with its geomean normalized IPC and
// metadata footprint.
type Fig6Result struct {
	Config        Fig6Config
	Speedup       float64
	MetadataBytes uint64
}

// Fig6 reproduces the design-space exploration. The 9-config × 14-bench
// matrix and its no-HBM baseline fan out across the harness worker pool
// as one sweep; per-config geomeans are assembled in figure order
// afterwards.
func (h *Harness) Fig6() ([]Fig6Result, error) {
	if h.Shard.Active() {
		return nil, fmt.Errorf("fig6: sharding unsupported (every configuration normalizes against the no-HBM baseline, which another shard may own); use -shard with fig8")
	}
	bs := h.Benchmarks()
	cfgs := Fig6Configs()
	// The no-HBM baseline is row 0. Every configuration runs Bumblebee on
	// the same per-benchmark trace through the same caches, so each
	// benchmark's ten cells share one filtered stream.
	rows := []row{h.baselineRow()}
	for _, cfg := range cfgs {
		sys := h.System()
		sys.BlockBytes = cfg.BlockKB * addr.KiB
		sys.PageBytes = cfg.PageKB * addr.KiB
		rows = append(rows, row{exp: "fig6", label: cfg.Label(), design: config.DesignBumblebee, sys: sys})
	}
	runs, err := h.sweepRows(rows, bs)
	if err != nil {
		return nil, err
	}
	var out []Fig6Result
	for ci, cfg := range cfgs {
		gm, err := metrics.Geomean(speedups(runs[0], runs[ci+1]))
		if err != nil {
			return nil, err
		}
		// Metadata is reported for the full-scale Table I capacities —
		// the SRAM-budget constraint that picks the design point.
		full := config.Default()
		full.BlockBytes = cfg.BlockKB * addr.KiB
		full.PageBytes = cfg.PageKB * addr.KiB
		geom, err := full.Geometry()
		if err != nil {
			return nil, err
		}
		md := core.Metadata(geom, full.Bumblebee.HotQueueDepth)
		out = append(out, Fig6Result{Config: cfg, Speedup: gm, MetadataBytes: md.TotalBytes()})
		h.log("fig6", "config", cfg.Label(), "speedup", gm, "metadata_kb", md.TotalBytes()/addr.KiB)
	}
	return out, nil
}

// Fig6Table renders the sweep like the figure.
func Fig6Table(results []Fig6Result) string {
	out := "== Figure 6: normalized IPC by block-page size (KB) ==\n"
	out += fmt.Sprintf("%-8s %10s %14s\n", "config", "speedup", "metadata(KB)")
	for _, r := range results {
		out += fmt.Sprintf("%-8s %10.3f %14d\n", r.Config.Label(), r.Speedup, r.MetadataBytes/addr.KiB)
	}
	return out
}
