// Quickstart: build a Bumblebee hybrid memory system, run a synthetic
// workload through the CPU and cache models, and read the results.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/trace"
)

func main() {
	// 1. Start from the paper's Table I configuration, scaled down 256x
	//    (HBM 4 MiB, DRAM 40 MiB, LLC 32 KiB) so the example finishes in
	//    a second, and run one million memory references per workload.
	h := &harness.Harness{Scale: 256, Accesses: 1_000_000}
	sys := h.System()

	// 2. Build the Bumblebee controller (the paper's HMMC).
	bb, err := core.New(sys)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Bumblebee on %d remapping sets, metadata budget: %s\n\n",
		bb.Devices().Geom.Sets(), bb.Metadata())

	// 3. Run a workload through the SRAM cache hierarchy into Bumblebee:
	//    8 MiB footprint, strong temporal locality, moderate spatial
	//    locality.
	res, err := h.Run(sys, bb, trace.Benchmark{Profile: trace.Profile{
		Name:           "quickstart",
		FootprintBytes: 8 * addr.MiB,
		AvgGap:         6,
		RunMean:        16,
		HotFraction:    0.1,
		HotProbability: 0.8,
		WriteFraction:  0.3,
	}})
	if err != nil {
		log.Fatal(err)
	}

	// 4. Read the results.
	cpu, cnt := res.CPU, res.Counters
	fmt.Printf("instructions: %d   cycles: %d   IPC: %.3f   MPKI: %.1f\n",
		cpu.Instructions, cpu.Cycles, cpu.IPC(), cpu.MPKI())
	fmt.Printf("LLC misses served by HBM: %.1f%%  (mHBM+cHBM hits)\n", cnt.HBMServeRate()*100)
	fmt.Printf("block fills: %d   page migrations: %d   mode switches: %d   evictions: %d\n",
		cnt.BlockFills, cnt.PageMigrations, cnt.ModeSwitches, cnt.Evictions)
	fmt.Printf("HBM traffic: %.1f MB   DRAM traffic: %.1f MB\n",
		float64(res.HBMBytes)/1e6, float64(res.DRAMBytes)/1e6)
	fmt.Printf("memory dynamic energy: %.3f mJ\n", res.Energy.TotalMJ())
	fmt.Printf("over-fetch (fetched but never used): %.1f%%\n", cnt.OverfetchRate()*100)
}
