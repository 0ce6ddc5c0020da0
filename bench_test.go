// Benchmarks regenerating the paper's evaluation, one per table and
// figure, plus ablation benches for the design decisions DESIGN.md calls
// out. Each benchmark runs a reduced-scale experiment per iteration and
// reports the paper's headline metric via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// prints the same series the paper plots. For full-resolution runs use
// cmd/bbrepro; these benches trade resolution for wall time.
package main

import (
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// benchHarness returns the reduced-scale harness used by every bench.
func benchHarness() *harness.Harness {
	h := harness.New()
	h.Scale = 256
	h.Accesses = 120_000
	return h
}

// BenchmarkTable2Workloads measures the MPKI of every Table II stand-in
// (the workload side of the reproduction).
func BenchmarkTable2Workloads(b *testing.B) {
	h := benchHarness()
	for i := 0; i < b.N; i++ {
		rows, err := h.Table2()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.ReportMetric(r.MeasMPKI, "mpki:"+r.Bench)
			}
		}
	}
}

// BenchmarkFig1AccessHistogram regenerates Figure 1's access-number
// distributions and reports each benchmark's high-reuse share at 64 B and
// 64 KB lines.
func BenchmarkFig1AccessHistogram(b *testing.B) {
	h := benchHarness()
	for i := 0; i < b.N; i++ {
		res, err := h.Fig1(nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range res {
				if r.LineBytes != 64 && r.LineBytes != 64*1024 {
					continue
				}
				hot := r.Shares[1] + r.Shares[2] + r.Shares[3] + r.Shares[4]
				b.ReportMetric(hot, "hotshare:"+r.Bench+":"+sizeTag(r.LineBytes))
			}
		}
	}
}

func sizeTag(bytes uint64) string {
	if bytes >= 1024 {
		return "64KB"
	}
	return "64B"
}

// BenchmarkFig6DesignSpace sweeps the block/page design space and reports
// the normalized IPC of each configuration (the paper picks 2-64).
func BenchmarkFig6DesignSpace(b *testing.B) {
	h := benchHarness()
	for i := 0; i < b.N; i++ {
		res, err := h.Fig6()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range res {
				b.ReportMetric(r.Speedup, "speedup:"+r.Config.Label())
			}
		}
	}
}

// BenchmarkFig7Breakdown runs the ten performance-factor variants and
// reports each geomean speedup.
func BenchmarkFig7Breakdown(b *testing.B) {
	h := benchHarness()
	for i := 0; i < b.N; i++ {
		res, err := h.Fig7()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range res {
				b.ReportMetric(r.Speedup, "speedup:"+r.Label)
			}
		}
	}
}

// BenchmarkFig8Performance reproduces Figure 8(a-d): every design's
// normalized IPC, HBM traffic, DRAM traffic, and dynamic energy over the
// All group.
func BenchmarkFig8Performance(b *testing.B) {
	h := benchHarness()
	for i := 0; i < b.N; i++ {
		res, err := h.Fig8()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			report := func(t *metrics.Table, tag string) {
				for _, row := range t.Rows {
					b.ReportMetric(row.Values["All"], tag+":"+row.Name)
				}
			}
			report(res.IPC, "ipc")
			report(res.HBM, "hbmtraf")
			report(res.DRAM, "dramtraf")
			report(res.Energy, "energy")
		}
	}
}

// BenchmarkOverfetch reproduces the Section IV-B over-fetch comparison
// (paper: Bumblebee 13.3% vs Hybrid2 13.7%).
func BenchmarkOverfetch(b *testing.B) {
	h := benchHarness()
	for i := 0; i < b.N; i++ {
		res, err := h.Overfetch()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.Bumblebee*100, "overfetch%:bumblebee")
			b.ReportMetric(res.Hybrid2*100, "overfetch%:hybrid2")
		}
	}
}

// BenchmarkMetadataBudget reproduces the Section IV-B metadata accounting
// at full Table I scale.
func BenchmarkMetadataBudget(b *testing.B) {
	sys := config.Default()
	geom, err := sys.Geometry()
	if err != nil {
		b.Fatal(err)
	}
	var total uint64
	for i := 0; i < b.N; i++ {
		m := core.Metadata(geom, sys.Bumblebee.HotQueueDepth)
		total = m.TotalBytes()
	}
	b.ReportMetric(float64(total)/1024, "metadataKB")
	base := core.Baselines(geom)
	b.ReportMetric(float64(base.Hybrid2Bytes)/1024, "hybrid2KB")
}

// --- Ablation benches for DESIGN.md's design decisions ---

// runVariant measures the geomean speedup of a Bumblebee option set over
// the no-HBM baseline on a three-benchmark subset (one per MPKI class).
func runVariant(b *testing.B, mutate func(*config.System)) float64 {
	b.Helper()
	h := benchHarness()
	subset := []string{"wrf", "mcf", "xz"}
	var speedups []float64
	for _, name := range subset {
		bench, err := trace.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		bench = bench.Scale(h.Scale)
		run := func(d config.Design, sys config.System) harness.RunResult {
			mem, err := harness.Build(d, sys)
			if err != nil {
				b.Fatal(err)
			}
			r, err := h.Run(sys, mem, bench)
			if err != nil {
				b.Fatal(err)
			}
			return r
		}
		base := run(config.DesignNoHBM, h.System())
		sys := h.System()
		mutate(&sys)
		r := run(config.DesignBumblebee, sys)
		speedups = append(speedups, r.CPU.IPC()/base.CPU.IPC())
	}
	gm, err := metrics.Geomean(speedups)
	if err != nil {
		b.Fatal(err)
	}
	return gm
}

// BenchmarkAblationAssociativity compares remapping-set associativities
// (the paper fixes 8-way as the hardware/performance compromise).
func BenchmarkAblationAssociativity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, ways := range []uint64{2, 8, 32} {
			gm := runVariant(b, func(s *config.System) { s.HBMWays = ways })
			if i == 0 {
				b.ReportMetric(gm, "speedup:ways"+itoa(ways))
			}
		}
	}
}

// BenchmarkAblationHotTableDepth varies the number of recently accessed
// off-chip pages tracked per set (the paper picks 8).
func BenchmarkAblationHotTableDepth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, depth := range []int{2, 8, 32} {
			gm := runVariant(b, func(s *config.System) { s.Bumblebee.HotQueueDepth = depth })
			if i == 0 {
				b.ReportMetric(gm, "speedup:depth"+itoa(uint64(depth)))
			}
		}
	}
}

// BenchmarkAblationMoveBudget varies the data-movement bandwidth budget's
// effect indirectly via the page size (larger pages, costlier movements).
func BenchmarkAblationMoveBudget(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, pageKB := range []uint64{16, 64, 128} {
			gm := runVariant(b, func(s *config.System) { s.PageBytes = pageKB * 1024 })
			if i == 0 {
				b.ReportMetric(gm, "speedup:page"+itoa(pageKB)+"KB")
			}
		}
	}
}

func itoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// BenchmarkMixWeightedSpeedup reports the multi-core mix extension.
func BenchmarkMixWeightedSpeedup(b *testing.B) {
	h := benchHarness()
	for i := 0; i < b.N; i++ {
		res, err := h.Mix(nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range res {
				b.ReportMetric(r.WeightedSpeedup, "ws:"+r.Design)
			}
		}
	}
}
