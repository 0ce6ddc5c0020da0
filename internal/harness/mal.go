package harness

import (
	"fmt"

	"repro/internal/config"
)

// Section II-B measures the metadata access latency (MAL) of designs
// that keep metadata in HBM: "it accounts for 2%~26% of the total memory
// request latency". We reproduce the measurement by running the same
// workload twice — metadata in SRAM vs. metadata in HBM (the Meta-H
// configuration) — and attributing the average miss-latency difference
// to metadata accesses.

// MALResult is the metadata-latency share of one benchmark.
type MALResult struct {
	Bench    string
	SRAMLat  float64 // avg miss latency, metadata in SRAM
	HBMLat   float64 // avg miss latency, metadata in HBM
	MALShare float64 // (HBMLat-SRAMLat)/HBMLat
}

// MAL measures the metadata access latency share for every Table II
// benchmark: one cell per (benchmark, metadata placement) — Figure 7's
// Bumblebee and Meta-H runs — fanned out across the pool. A
// benchmark's pair runs the same deterministic stream through the same
// caches, so it shares one filtered stream.
func (h *Harness) MAL() ([]MALResult, error) {
	bs := h.Benchmarks()
	runs, err := sweepShared(h, 2*len(bs),
		func(i int) shared {
			sys := h.System()
			sys.Bumblebee.MetadataInHBM = i%2 == 1
			return h.syntheticCell(config.DesignBumblebee, sys, bs[i/2])
		}, nil)
	if err != nil {
		return nil, err
	}
	out := make([]MALResult, len(bs))
	for bi, b := range bs {
		r := MALResult{Bench: b.Profile.Name, SRAMLat: runs[2*bi].CPU.AvgMissLatency(), HBMLat: runs[2*bi+1].CPU.AvgMissLatency()}
		if r.HBMLat > 0 && r.HBMLat > r.SRAMLat {
			r.MALShare = (r.HBMLat - r.SRAMLat) / r.HBMLat
		}
		h.log("mal", "bench", r.Bench, "sram_lat", r.SRAMLat, "hbm_lat", r.HBMLat, "share_pct", r.MALShare*100)
		out[bi] = r
	}
	return out, nil
}

// MALTable renders the measurement like the paper quotes it.
func MALTable(results []MALResult) string {
	out := "== Section II-B: metadata access latency in HBM (share of miss latency) ==\n"
	out += fmt.Sprintf("%-11s %12s %12s %8s\n", "bench", "SRAM-lat", "HBM-lat", "MAL")
	min, max := 1.0, 0.0
	for _, r := range results {
		out += fmt.Sprintf("%-11s %12.0f %12.0f %7.1f%%\n", r.Bench, r.SRAMLat, r.HBMLat, r.MALShare*100)
		if r.MALShare < min {
			min = r.MALShare
		}
		if r.MALShare > max {
			max = r.MALShare
		}
	}
	out += fmt.Sprintf("range %.0f%%~%.0f%%   (paper: 2%%~26%%)\n", min*100, max*100)
	return out
}
