// Baseline-shootout: runs one workload on all six memory designs
// side by side — Bumblebee against Hybrid2, Chameleon, Banshee, Alloy
// Cache and Unison Cache — plus the no-HBM baseline used for
// normalization, printing the Figure 8 metrics for each. Each design is
// built with harness.Build and run with Harness.Run, the single-run path
// of bumblebee-sim, so every row equals the matching bumblebee-sim run.
// Like the Figure 8 sweep, Run seeds each design's trace from its own
// name, so the designs replay different draws of the same profile.
//
//	go run ./examples/baseline-shootout               # default: mcf
//	go run ./examples/baseline-shootout -bench roms   # any Table II name
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"repro/internal/config"
	"repro/internal/harness"
	"repro/internal/trace"
)

func main() {
	var (
		bench    = flag.String("bench", "mcf", "Table II benchmark name")
		accesses = flag.Uint64("accesses", 500000, "memory references per design")
		scale    = flag.Uint64("scale", 128, "capacity scale factor")
	)
	flag.Parse()

	b, err := trace.ByName(*bench)
	if err != nil {
		log.Fatalf("unknown benchmark %q; known: %s", *bench, strings.Join(trace.Names(), ", "))
	}

	h := harness.New()
	h.Scale = *scale
	h.Accesses = *accesses
	scaled := b.Scale(h.Scale)
	sys := h.System()
	run := func(d config.Design) harness.RunResult {
		mem, err := harness.Build(d, sys)
		if err != nil {
			log.Fatal(err)
		}
		r, err := h.Run(sys, mem, scaled)
		if err != nil {
			log.Fatal(err)
		}
		return r
	}

	base := run(config.DesignNoHBM)

	fmt.Printf("benchmark %s (%s MPKI class, %.1f GB footprint), normalized to no-HBM\n\n",
		b.Profile.Name, b.Class, b.PaperGB)
	fmt.Printf("%-11s %8s %10s %10s %10s %9s %8s\n",
		"design", "IPC", "HBM-serve", "HBM-traf", "DRAM-traf", "energy", "faults")

	designs := append([]config.Design{config.DesignNoHBM}, harness.Fig8Designs...)
	for _, d := range designs {
		r := run(d)
		fmt.Printf("%-11s %7.2fx %9.1f%% %9.2fx %9.2fx %8.2fx %8d\n",
			r.Design,
			r.CPU.IPC()/base.CPU.IPC(),
			r.Counters.HBMServeRate()*100,
			float64(r.HBMBytes)/float64(base.DRAMBytes),
			float64(r.DRAMBytes)/float64(base.DRAMBytes),
			r.Energy.TotalPJ()/base.Energy.TotalPJ(),
			r.Counters.PageFaults,
		)
	}
	fmt.Println("\ntraffic columns are normalized to the baseline's DRAM traffic;")
	fmt.Println("faults count accesses beyond each design's OS-visible capacity.")
}
