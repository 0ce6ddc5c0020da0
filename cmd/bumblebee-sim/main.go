// Command bumblebee-sim runs one workload on one hybrid memory design and
// prints the full result: IPC, MPKI, serve rates, movement counters,
// per-device traffic and dynamic energy. Comma-separated -design/-bench
// lists fan the whole matrix out across -parallel workers and print one
// compact row per run instead.
//
//	bumblebee-sim -design bumblebee -bench mcf
//	bumblebee-sim -design hybrid2 -bench roms -scale 64 -accesses 2000000
//	bumblebee-sim -design bumblebee,hybrid2 -bench mcf,wrf,xz -parallel 8
//	bumblebee-sim -design bumblebee -trace run.bbt1.gz
//
// -trace replays a recorded trace in any encoding bbserve accepts (BBT1
// binary or text, each optionally gzipped) instead
// of a benchmark. Its first access gets an instruction gap of 1, as in
// bbserve.
//
// Designs: bumblebee, hybrid2, chameleon, banshee, alloy, unison, c-only,
// m-only, no-hbm.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"repro/internal/ckpt"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/harness"
	"repro/internal/hmm"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/tracecodec"
)

func main() {
	var (
		design    = flag.String("design", "bumblebee", "memory design to simulate (comma-separated list runs a matrix)")
		bench     = flag.String("bench", "mcf", "Table II benchmark name (comma-separated list runs a matrix)")
		traceFile = flag.String("trace", "", "replay a recorded trace (BBT1 or text, optionally gzipped) instead of a benchmark")
		scale     = flag.Uint64("scale", 128, "capacity scale factor versus Table I")
		accesses  = flag.Uint64("accesses", 1_000_000, "memory references to simulate")
		blockKB   = flag.Uint64("block", 2, "Bumblebee block size in KB")
		pageKB    = flag.Uint64("page", 64, "Bumblebee page size in KB")
		inspect   = flag.Int("inspect", -1, "dump this remapping set's state after the run (Bumblebee only)")
		faultRate = flag.Float64("faults", 0, "RAS frame-failure rate per million HBM accesses (0 disables fault injection)")
		ckptDir   = flag.String("checkpoint", "", "journal completed matrix cells into this directory (matrix mode only)")
		resumeDir = flag.String("resume", "", "resume an interrupted matrix run from this directory's checkpoint journal (implies -checkpoint DIR)")
	)
	var of obs.Flags
	of.RegisterAll(flag.CommandLine)
	flag.Parse()

	if err := of.Validate(); err != nil {
		log.Fatalf("bumblebee-sim: %v", err)
	}
	if *resumeDir != "" {
		if *ckptDir != "" && *ckptDir != *resumeDir {
			log.Fatalf("bumblebee-sim: -resume %s conflicts with -checkpoint %s", *resumeDir, *ckptDir)
		}
		*ckptDir = *resumeDir
	}
	cli, err := harness.StartCLI(&of, harness.CLIConfig{Tool: "bumblebee-sim", Sweep: "sim",
		Scale: *scale, Accesses: *accesses, Dir: *ckptDir, Resume: *resumeDir != ""})
	if err != nil {
		log.Fatalf("bumblebee-sim: %v", err)
	}
	h := cli.Harness
	sys := h.System()
	sys.BlockBytes = *blockKB * 1024
	sys.PageBytes = *pageKB * 1024
	sys.Faults = harness.FaultsAtRate(*faultRate)
	if err := sys.Validate(); err != nil {
		log.Fatalf("bumblebee-sim: invalid configuration: %v", err)
	}

	designs := strings.Split(*design, ",")
	benches := strings.Split(*bench, ",")
	if *traceFile == "" && (len(designs) > 1 || len(benches) > 1) {
		if *inspect >= 0 {
			log.Fatal("bumblebee-sim: -inspect needs a single design and benchmark")
		}
		if *ckptDir != "" {
			if err := cli.OpenJournal("matrix", ""); err != nil {
				log.Fatalf("bumblebee-sim: %v", err)
			}
		}
		interrupted := runMatrix(h, sys, designs, benches, of.TraceOut, *ckptDir)
		if err := cli.Close(); err != nil {
			log.Fatalf("bumblebee-sim: %v", err)
		}
		if interrupted {
			os.Exit(ckpt.ExitResumable)
		}
		return
	}
	if *ckptDir != "" {
		log.Fatal("bumblebee-sim: -checkpoint/-resume need matrix mode (comma-separated -design/-bench lists)")
	}

	mem, err := harness.Build(config.Design(*design), sys)
	if err != nil {
		log.Fatalf("bumblebee-sim: %v", err)
	}

	var r harness.RunResult
	if *traceFile != "" {
		r, err = replay(h, sys, mem, *traceFile)
	} else {
		b, berr := trace.ByName(*bench)
		if berr != nil {
			log.Fatalf("bumblebee-sim: unknown benchmark %q (known: %s)",
				*bench, strings.Join(trace.Names(), ", "))
		}
		r, err = h.Run(sys, mem, b.Scale(h.Scale))
	}
	if err != nil {
		log.Fatalf("bumblebee-sim: %v", err)
	}
	res, cnt, runTel := r.CPU, r.Counters, r.Telemetry

	hbm := mem.Devices().HBM.Stats()
	ddr := mem.Devices().DRAM.Stats()
	e := energy.FromStats(hbm, ddr)

	fmt.Printf("design %s, workload %s, scale 1/%d\n\n", r.Design, r.Bench, *scale)
	fmt.Printf("instructions    %12d\n", res.Instructions)
	fmt.Printf("cycles          %12d\n", res.Cycles)
	fmt.Printf("IPC             %12.3f\n", res.IPC())
	fmt.Printf("MPKI            %12.1f\n", res.MPKI())
	fmt.Printf("avg miss lat    %12.0f cycles\n", res.AvgMissLatency())
	fmt.Printf("LLC misses      %12d (served HBM %.1f%%)\n", res.LLCMisses, cnt.HBMServeRate()*100)
	fmt.Printf("page faults     %12d\n", cnt.PageFaults)
	fmt.Println()
	fmt.Printf("block fills     %12d\n", cnt.BlockFills)
	fmt.Printf("page migrations %12d\n", cnt.PageMigrations)
	fmt.Printf("mode switches   %12d\n", cnt.ModeSwitches)
	fmt.Printf("page swaps      %12d\n", cnt.PageSwaps)
	fmt.Printf("evictions       %12d\n", cnt.Evictions)
	fmt.Printf("over-fetch      %12.1f%%\n", cnt.OverfetchRate()*100)
	fmt.Println()
	fmt.Printf("HBM traffic     %12.1f MB  (%d row hits, %d activates)\n",
		float64(hbm.TotalBytes())/1e6, hbm.RowHits, hbm.Activates)
	fmt.Printf("DRAM traffic    %12.1f MB  (%d row hits, %d activates)\n",
		float64(ddr.TotalBytes())/1e6, ddr.RowHits, ddr.Activates)
	fmt.Printf("dynamic energy  %12.3f mJ  (HBM %.3f, DRAM %.3f)\n",
		e.TotalMJ(), e.HBMPJ()/1e9, e.DRAMPJ()/1e9)
	fmt.Printf("metadata        %12d lookups (%d to HBM)\n", cnt.MetaLookups, cnt.MetaHBM)

	if runTel != nil {
		fmt.Println()
		fmt.Printf("service latency (cycles, per tier)\n")
		fmt.Printf("  %-6s %12s %10s %8s %8s %8s %8s\n",
			"tier", "count", "mean", "p50", "p95", "p99", "max")
		for t := telemetry.Tier(0); t < telemetry.NumTiers; t++ {
			lh := &runTel.Lat[t]
			fmt.Printf("  %-6s %12d %10.3f %8d %8d %8d %8d\n",
				t, lh.Count, lh.Mean(),
				lh.Quantile(0.50), lh.Quantile(0.95), lh.Quantile(0.99), lh.Max)
		}
		fmt.Printf("  epochs %d   events %d recorded (%d beyond ring depth)\n",
			len(runTel.Timeline), runTel.EventsTotal, runTel.EventsDropped)
		if of.TraceOut != "" {
			if err := report.WriteFile(of.TraceOut, func(w io.Writer) error {
				return harness.WriteChromeTrace(w, []harness.RunResult{r})
			}); err != nil {
				log.Fatalf("bumblebee-sim: %v", err)
			}
			fmt.Printf("  trace written to %s\n", of.TraceOut)
		}
	}

	if sys.Faults.Enabled {
		fmt.Println()
		fmt.Printf("RAS: ecc corrected  %10d   ecc retried    %10d\n", cnt.ECCCorrected, cnt.ECCRetried)
		fmt.Printf("     frames retired %10d   retired serves %10d\n", cnt.FramesRetired, cnt.RetiredServes)
		fmt.Printf("     throttled      %10d\n", cnt.ThrottledAccesses)
		fmt.Printf("     retire: %d migrations, %d drops, %d deferred\n",
			cnt.RetireMigrations, cnt.RetireDrops, cnt.RetireDeferred)
	}

	if bb, ok := mem.(*core.Bumblebee); ok {
		fmt.Println()
		bb.Summary(os.Stdout)
		if *inspect >= 0 {
			fmt.Println()
			if err := bb.DumpSet(os.Stdout, uint64(*inspect)); err != nil {
				log.Fatalf("bumblebee-sim: %v", err)
			}
		}
	} else if *inspect >= 0 {
		log.Fatalf("bumblebee-sim: -inspect needs a Bumblebee-family design")
	}
	cli.Close()
}

// replay runs the trace at path, in whichever encoding tracecodec.Open
// sniffs, on mem through the harness.
func replay(h *harness.Harness, sys config.System, mem hmm.MemSystem, path string) (harness.RunResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return harness.RunResult{}, err
	}
	defer f.Close()
	rd, err := tracecodec.Open(f)
	if err != nil {
		return harness.RunResult{}, err
	}
	return h.RunStream(sys, mem, path, tracecodec.NewStream(rd))
}

// runMatrix fans a (design × benchmark) matrix out across the harness
// worker pool and prints one compact row per run, in matrix order. With
// telemetry enabled and traceOut set, all runs land in one Chrome trace.
// It reports whether the sweep was interrupted (drained, checkpointed,
// resumable) rather than completed.
func runMatrix(h *harness.Harness, sys config.System, designs, benches []string, traceOut, ckptDir string) bool {
	rows, err := h.Matrix(sys, designs, benches)
	if err != nil {
		if errors.Is(err, runner.ErrInterrupted) && ckptDir != "" {
			fmt.Fprintf(os.Stderr, "bumblebee-sim: interrupted; resume with: bumblebee-sim -resume %s (plus the same -design/-bench flags)\n", ckptDir)
			return true
		}
		log.Fatalf("bumblebee-sim: %v", err)
	}
	fmt.Printf("%-11s %-11s %8s %8s %10s %8s %10s %10s\n",
		"design", "bench", "IPC", "MPKI", "misslat", "HBM%", "HBM MB", "DRAM MB")
	flat := make([]harness.RunResult, 0, len(designs)*len(benches))
	for di := range designs {
		for bi := range benches {
			r := rows[di][bi]
			flat = append(flat, r)
			fmt.Printf("%-11s %-11s %8.3f %8.1f %10.0f %7.1f%% %10.1f %10.1f\n",
				r.Design, r.Bench, r.CPU.IPC(), r.CPU.MPKI(), r.CPU.AvgMissLatency(),
				r.Counters.HBMServeRate()*100,
				float64(r.HBMBytes)/1e6, float64(r.DRAMBytes)/1e6)
		}
	}
	if traceOut != "" {
		if err := report.WriteFile(traceOut, func(w io.Writer) error {
			return harness.WriteChromeTrace(w, flat)
		}); err != nil {
			log.Fatalf("bumblebee-sim: %v", err)
		}
		fmt.Printf("trace written to %s\n", traceOut)
	}
	return false
}
