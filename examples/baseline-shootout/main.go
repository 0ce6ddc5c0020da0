// Baseline-shootout: runs one workload on all six memory designs
// side by side — Bumblebee against Hybrid2, Chameleon, Banshee, Alloy
// Cache and Unison Cache — plus the no-HBM baseline used for
// normalization, printing the Figure 8 metrics for each. The designs
// run as one Harness.Matrix sweep, the list mode of bumblebee-sim, so
// every row equals the matching bumblebee-sim run. Like the Figure 8
// sweep, the trace is seeded from the benchmark's name alone, so every
// design replays the same accesses.
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
	designs := []string{string(config.DesignNoHBM)}
	for _, d := range harness.Fig8Designs {
		designs = append(designs, string(d))
	}
	runs, err := h.Matrix(h.System(), designs, []string{*bench})
	if err != nil {
		log.Fatal(err)
	}
	base := runs[0][0]

	fmt.Printf("benchmark %s (%s MPKI class, %.1f GB footprint), normalized to no-HBM\n\n",
		b.Profile.Name, b.Class, b.PaperGB)
	fmt.Printf("%-11s %8s %10s %10s %10s %9s %8s\n",
		"design", "IPC", "HBM-serve", "HBM-traf", "DRAM-traf", "energy", "faults")
	for _, row := range runs {
		r := row[0]
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
