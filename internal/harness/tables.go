package harness

import (
	"fmt"
	"strings"

	"repro/internal/addr"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/trace"
)

// Table1 renders the simulated system configuration (paper Table I) at
// full scale plus the harness's scaled instance.
func (h *Harness) Table1() string {
	full := config.Default()
	scaled := h.System()
	var b strings.Builder
	fmt.Fprintf(&b, "== Table I: system configuration ==\n")
	fmt.Fprintf(&b, "Core: %d MHz, CPI base %.2f, MLP %d\n", full.Core.FreqMHz, full.Core.CPIBase, full.Core.MLP)
	for _, c := range full.Caches {
		fmt.Fprintf(&b, "%-4s %6dKB %2d-way %s, %d-cycle\n",
			c.Name, c.SizeBytes/addr.KiB, c.Ways, c.Policy, c.LatencyCyc)
	}
	for _, d := range []config.DRAMDevice{full.HBM, full.DRAM} {
		fmt.Fprintf(&b, "%-10s %4dGB, %dx%d-bit ch, %d banks, tCAS-tRCD-tRP %d-%d-%d, %.1f GB/s peak\n",
			d.Name, d.CapacityBytes/addr.GiB, d.Channels, d.ChannelBits, d.Banks,
			d.Timing.TCAS, d.Timing.TRCD, d.Timing.TRP, d.PeakBandwidthGBs())
	}
	fmt.Fprintf(&b, "Bumblebee: %dKB blocks, %dKB pages, %d-way sets\n",
		full.BlockBytes/addr.KiB, full.PageBytes/addr.KiB, full.HBMWays)
	fmt.Fprintf(&b, "Harness scale 1/%d: HBM %dMB, DRAM %dMB, LLC %dKB\n",
		h.Scale, scaled.HBM.CapacityBytes/addr.MiB, scaled.DRAM.CapacityBytes/addr.MiB,
		scaled.Caches[len(scaled.Caches)-1].SizeBytes/addr.KiB)
	return b.String()
}

// Table2Row is the measured characteristics of one benchmark stand-in.
type Table2Row struct {
	Bench       string
	Class       trace.MPKIClass
	PaperMPKI   float64
	MeasMPKI    float64
	PaperGB     float64
	FootprintGB float64 // scaled footprint expressed at full scale
}

// Table2 measures the MPKI and footprint our synthetic stand-ins actually
// produce, next to the paper's reported values: each benchmark's no-HBM
// run, the Figure 6-8 baseline.
func (h *Harness) Table2() ([]Table2Row, error) {
	bs := h.Benchmarks()
	sys := h.System()
	runs, err := sweepShared(h, len(bs),
		func(i int) shared { return h.syntheticCell(config.DesignNoHBM, sys, bs[i]) }, nil)
	if err != nil {
		return nil, err
	}
	rows := make([]Table2Row, len(bs))
	for i, b := range bs {
		rows[i] = Table2Row{
			Bench:       b.Profile.Name,
			Class:       b.Class,
			PaperMPKI:   b.PaperMPKI,
			MeasMPKI:    runs[i].CPU.MPKI(),
			PaperGB:     b.PaperGB,
			FootprintGB: float64(b.Profile.FootprintBytes) * float64(h.Scale) / float64(addr.GiB),
		}
		h.log("table2", "bench", b.Profile.Name, "mpki", rows[i].MeasMPKI, "paper_mpki", b.PaperMPKI)
	}
	return rows, nil
}

// Table2Text renders the measured Table II.
func Table2Text(rows []Table2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== Table II: benchmark characteristics (measured vs paper) ==\n")
	fmt.Fprintf(&b, "%-11s %-7s %10s %10s %12s %10s\n",
		"bench", "class", "MPKI", "paperMPKI", "footprintGB", "paperGB")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-11s %-7s %10.1f %10.1f %12.1f %10.1f\n",
			r.Bench, r.Class, r.MeasMPKI, r.PaperMPKI, r.FootprintGB, r.PaperGB)
	}
	return b.String()
}

// MetadataReport reproduces the Section IV-B metadata accounting at full
// scale: Bumblebee's budget against the comparison designs.
func MetadataReport() string {
	g, err := addr.NewGeometry(64*addr.KiB, 2*addr.KiB, 10*addr.GiB, 1*addr.GiB, 8)
	if err != nil {
		return err.Error()
	}
	m := core.Metadata(g, 8)
	base := core.Baselines(g)
	var b strings.Builder
	fmt.Fprintf(&b, "== Section IV-B: metadata storage (full-scale Table I system) ==\n")
	fmt.Fprintf(&b, "bumblebee  %s\n", m)
	fmt.Fprintf(&b, "           (paper: 334KB = 110KB PRT + 136KB BLE + 88KB hotness)\n")
	fmt.Fprintf(&b, "alloy      %6dKB (tags, in HBM)\n", base.AlloyBytes/addr.KiB)
	fmt.Fprintf(&b, "unison     %6dKB (in-HBM tags + footprints)\n", base.UnisonBytes/addr.KiB)
	fmt.Fprintf(&b, "banshee    %6dKB (SRAM mapping + counters)\n", base.BansheeBytes/addr.KiB)
	fmt.Fprintf(&b, "hybrid2    %6dKB (block tags + remap pointers)\n", base.Hybrid2Bytes/addr.KiB)
	fmt.Fprintf(&b, "chameleon  %6dKB (group remap entries)\n", base.ChameleonBytes/addr.KiB)
	return b.String()
}

// OverfetchResult compares the share of data brought into HBM but never
// used, Bumblebee vs Hybrid2 (Section IV-B reports 13.3% vs 13.7%).
type OverfetchResult struct {
	Bumblebee float64
	Hybrid2   float64
}

// overfetchDesigns are the designs Overfetch compares, in cell order.
var overfetchDesigns = []config.Design{config.DesignBumblebee, config.DesignHybrid2}

// Overfetch measures over-fetching across all Table II benchmarks, one
// cell per (benchmark, design) — the Figure 8 runs of both designs;
// totals accumulate in benchmark order after the sweep so the result is
// scheduling-independent.
func (h *Harness) Overfetch() (OverfetchResult, error) {
	bs := h.Benchmarks()
	sys := h.System()
	n := len(overfetchDesigns)
	runs, err := sweepShared(h, len(bs)*n,
		func(i int) shared { return h.syntheticCell(overfetchDesigns[i%n], sys, bs[i/n]) }, nil)
	if err != nil {
		return OverfetchResult{}, err
	}
	var fetched, used [2]uint64
	for i, r := range runs {
		fetched[i%n] += r.Counters.FetchedBytes
		used[i%n] += r.Counters.UsedBytes
		h.log("overfetch", "design", r.Design, "bench", r.Bench, "pct", r.Counters.OverfetchRate()*100)
	}
	rate := func(k int) float64 {
		if fetched[k] == 0 {
			return 0
		}
		return 1 - min(float64(used[k])/float64(fetched[k]), 1)
	}
	return OverfetchResult{Bumblebee: rate(0), Hybrid2: rate(1)}, nil
}
