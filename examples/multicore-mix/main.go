// Multicore-mix: Table I describes private L1/L2 caches per core and one
// shared LLC. This example co-runs four Table II workloads — one per
// core, each in its own address space — on a shared Bumblebee memory
// system and compares per-core IPC against the no-HBM baseline (the
// classic weighted-speedup methodology).
//
//	go run ./examples/multicore-mix
package main

import (
	"fmt"
	"log"

	"repro/internal/addr"
	"repro/internal/config"
	"repro/internal/cpu"
	"repro/internal/harness"
	"repro/internal/trace"
)

const (
	accessesPerCore = 400_000
	scale           = 256
)

// buildStreams creates one stream per benchmark, each offset into its
// own address-space slice.
func buildStreams(sys config.System, names []string) ([]trace.Stream, error) {
	streams := make([]trace.Stream, len(names))
	slice := (sys.DRAM.CapacityBytes + sys.HBM.CapacityBytes) / uint64(len(names))
	for i, name := range names {
		b, err := trace.ByName(name)
		if err != nil {
			return nil, err
		}
		p := b.Scale(scale * uint64(len(names))).Profile // quarter-size footprints
		gen, err := trace.NewSynthetic(p)
		if err != nil {
			return nil, err
		}
		streams[i] = &trace.Offset{
			S:     &trace.Limit{S: gen, N: accessesPerCore},
			Delta: addr.Addr(uint64(i) * slice),
		}
	}
	return streams, nil
}

func run(design config.Design, names []string) ([]cpu.Result, error) {
	h := harness.New()
	h.Scale = scale
	sys := h.System()
	mem, err := harness.Build(design, sys)
	if err != nil {
		return nil, err
	}
	streams, err := buildStreams(sys, names)
	if err != nil {
		return nil, err
	}
	// The last cache level is the shared LLC; L1 and L2 are per core.
	return cpu.RunMulti(sys.Core, sys.Caches, streams, mem)
}

func main() {
	mix := []string{"mcf", "wrf", "xz", "leela"}
	base, err := run(config.DesignNoHBM, mix)
	if err != nil {
		log.Fatal(err)
	}
	bb, err := run(config.DesignBumblebee, mix)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("core  bench   no-HBM IPC   bumblebee IPC   speedup")
	ws := 0.0
	for i, name := range mix {
		sp := bb[i].IPC() / base[i].IPC()
		ws += sp
		fmt.Printf("%4d  %-6s %10.3f %15.3f %8.2fx\n",
			i, name, base[i].IPC(), bb[i].IPC(), sp)
	}
	fmt.Printf("\nweighted speedup: %.2f (ideal 4.00 = every core at baseline speed)\n", ws)
	fmt.Println("All four cores share one Bumblebee HBM: the hot mcf working set is")
	fmt.Println("served from HBM while the streaming and scattered cores coexist.")
}
