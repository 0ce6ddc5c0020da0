// Locality-explorer: reproduces the paper's Figure 1 methodology on any
// workload profile — how often is each 64 B word of a cHBM line accessed
// before the line is evicted, as a function of the line size? This is the
// measurement that motivates the whole adjustable cHBM:mHBM design.
//
//	go run ./examples/locality-explorer            # the paper's mcf/wrf/xz
//	go run ./examples/locality-explorer -bench lbm # any Table II profile
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"repro/internal/harness"
	"repro/internal/trace"
)

func main() {
	var (
		bench    = flag.String("bench", "", "single Table II benchmark (default: mcf, wrf, xz)")
		accesses = flag.Uint64("accesses", 400000, "memory references per configuration")
		scale    = flag.Uint64("scale", 256, "capacity scale factor")
	)
	flag.Parse()

	h := harness.New()
	h.Scale = *scale
	h.Accesses = *accesses

	var benches []string // nil: the paper's mcf, wrf and xz
	if *bench != "" {
		if _, err := trace.ByName(*bench); err != nil {
			log.Fatalf("unknown benchmark %q; known: %s", *bench, strings.Join(trace.Names(), ", "))
		}
		benches = []string{*bench}
	}

	res, err := h.Fig1(benches)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(harness.Fig1Table(res))

	fmt.Println("\nReading the table (the paper's Figure 1):")
	fmt.Println("  - strong spatial + strong temporal (mcf): high-N share stays high at all line sizes;")
	fmt.Println("    large mHBM pages capture the locality without over-fetching.")
	fmt.Println("  - weak spatial + strong temporal (wrf): high-N share collapses as lines grow;")
	fmt.Println("    small cHBM blocks avoid over-fetching.")
	fmt.Println("  - strong spatial + weak temporal (xz): most data is rarely re-accessed;")
	fmt.Println("    caching barely helps — non-aggressive mHBM migration is preferred.")
}
