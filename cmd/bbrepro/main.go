// Command bbrepro regenerates the paper's evaluation: every figure and
// table, printed as text series. Use -experiment to run one experiment
// (bbrepro -h lists them) or "all" for the full evaluation; figfault (the
// RAS fault sweep) and check (the deep lockstep differential-oracle
// sweep) run only when requested by name.
//
//	bbrepro -experiment fig8 -scale 128 -accesses 1500000
//
// With -csv, the run directory also gets a manifest.json (deterministic
// run identity: flags, toolchain, output SHA-256s) and a session.json
// (volatile facts: parallelism, wall time) — the inputs to bbreport.
// With -pprof or -metrics-addr, live sweep progress is served as
// Prometheus text at /metrics.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/check"
	"repro/internal/ckpt"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/runner"
)

// experiments lists every -experiment name except "all", in the order
// -h and the unknown-experiment error print them. namedOnly experiments
// run only when requested by name: the fault sweep multiplies the
// Figure 8 matrix by every rate, and the lockstep differential oracle is
// a correctness sweep, not a paper figure.
var experiments = []struct {
	name      string
	namedOnly bool
}{
	{"table1", false}, {"table2", false}, {"fig1", false}, {"fig6", false},
	{"fig7", false}, {"fig8", false}, {"mal", false}, {"mix", false},
	{"metadata", false}, {"overfetch", false}, {"figfault", true}, {"check", true},
}

// experimentNames returns every accepted -experiment value.
func experimentNames() []string {
	names := make([]string, 0, len(experiments)+1)
	for _, e := range experiments {
		names = append(names, e.name)
	}
	return append(names, "all")
}

// parseRates parses the -faults comma-separated rate list.
func parseRates(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad fault rate %q: %w", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func main() {
	start := time.Now()
	var (
		experiment = flag.String("experiment", "all", "which experiment to run ("+strings.Join(experimentNames(), ",")+")")
		scale      = flag.Uint64("scale", 128, "capacity scale factor versus Table I")
		accesses   = flag.Uint64("accesses", 1_500_000, "memory references per benchmark run")
		verbose    = flag.Bool("v", false, "log per-run progress (structured, to stderr)")
		csvDir     = flag.String("csv", "", "also write raw results as CSV (plus manifest.json/session.json) into this directory")
		plot       = flag.Bool("plot", false, "render figure panels as ASCII bar charts")
		faults     = flag.String("faults", "0,2,10,50", "comma-separated frame-failure rates (per million HBM accesses) for the figfault sweep")
		resume     = flag.String("resume", "", "resume an interrupted run from this directory's checkpoint journal (implies -csv DIR)")
		shardSpec  = flag.String("shard", "", "run only shard k/n of the sweep, e.g. 2/3 (fig8 only); rejoin with 'bbreport merge'")
	)
	var of obs.Flags
	of.RegisterAll(flag.CommandLine)
	flag.Parse()

	if err := of.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "bbrepro: %v\n", err)
		os.Exit(2)
	}
	if *resume != "" {
		if *csvDir != "" && *csvDir != *resume {
			fmt.Fprintf(os.Stderr, "bbrepro: -resume %s conflicts with -csv %s (resume implies the CSV directory)\n", *resume, *csvDir)
			os.Exit(2)
		}
		*csvDir = *resume
	}
	// With -csv the run is checkpointed and owns its signal lifecycle:
	// the first SIGINT/SIGTERM drains in-flight cells so they reach the
	// journal, then main flushes a partial manifest and exits resumable.
	cli, err := harness.StartCLI(&of, harness.CLIConfig{Tool: "bbrepro", Sweep: *experiment,
		Scale: *scale, Accesses: *accesses, Dir: *csvDir, Resume: *resume != ""})
	if err != nil {
		fmt.Fprintf(os.Stderr, "bbrepro: %v\n", err)
		os.Exit(2)
	}
	h := cli.Harness
	if *verbose {
		h.Log = cli.Log
	}
	if *shardSpec != "" {
		shd, err := runner.ParseShard(*shardSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bbrepro: -shard: %v\n", err)
			os.Exit(2)
		}
		// Only fig8 partitions cleanly: its per-run rows are independent
		// of each other, while every other experiment aggregates or
		// normalizes across the full matrix.
		if *experiment != "fig8" {
			fmt.Fprintf(os.Stderr, "bbrepro: -shard supports only -experiment fig8 (other sweeps aggregate across the full matrix)\n")
			os.Exit(2)
		}
		h.Shard = shd
	}

	if err := h.System().Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "bbrepro: invalid system configuration: %v\n", err)
		os.Exit(1)
	}
	rates, err := parseRates(*faults)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bbrepro: -faults: %v\n", err)
		os.Exit(2)
	}
	for _, r := range rates {
		if f := harness.FaultsAtRate(r); f.Validate() != nil {
			fmt.Fprintf(os.Stderr, "bbrepro: -faults: rate %g: %v\n", r, harness.FaultsAtRate(r).Validate())
			os.Exit(2)
		}
	}

	// An interrupted sweep is not a failure: completed cells are in the
	// journal, so main falls through to flush the partial manifest and
	// exits with the distinct resumable status. Later experiments in an
	// "all" run are skipped — the drain request covers them too.
	selected := map[string]bool{}
	for _, e := range experiments {
		selected[e.name] = e.name == *experiment || *experiment == "all" && !e.namedOnly
	}
	interrupted := false
	run := func(name string, fn func() error) {
		if !selected[name] || interrupted {
			return
		}
		if err := fn(); err != nil {
			if errors.Is(err, runner.ErrInterrupted) {
				fmt.Fprintf(os.Stderr, "bbrepro: %s: interrupted; resume with: bbrepro -experiment %s -resume %s\n", name, *experiment, *csvDir)
				interrupted = true
				return
			}
			fmt.Fprintf(os.Stderr, "bbrepro: %s: %v\n", name, err)
			os.Exit(1)
		}
	}

	if !slices.Contains(experimentNames(), *experiment) {
		fmt.Fprintf(os.Stderr, "bbrepro: unknown experiment %q (want %s)\n",
			*experiment, strings.Join(experimentNames(), ", "))
		os.Exit(2)
	}

	// With -csv, every file the run writes goes through one RunDir, which
	// hashes it into manifest.json. The manifest records only
	// deterministic facts, so it diffs clean across -parallel settings;
	// session.json takes the volatile rest. The checkpoint journal lives
	// in the same directory but is NOT a manifest output: attempt counts
	// legitimately differ between an interrupted-and-resumed run and a
	// clean one. Without -csv, rd is nil and discards every output.
	var rd *report.RunDir
	if *csvDir != "" {
		man := report.New("bbrepro", *experiment, *scale, *accesses, of.TelemetryEpoch)
		man.Flags = map[string]string{"faults": *faults}
		if *shardSpec != "" {
			man.Flags["shard"] = *shardSpec
		}
		if rd, err = report.NewRunDir(*csvDir, man); err == nil {
			err = cli.OpenJournal(*experiment, *shardSpec)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bbrepro: %v\n", err)
			os.Exit(1)
		}
	}
	run("table1", func() error {
		fmt.Println(h.Table1())
		return nil
	})
	run("table2", func() error {
		rows, err := h.Table2()
		if err != nil {
			return err
		}
		fmt.Println(harness.Table2Text(rows))
		return nil
	})
	run("fig1", func() error {
		res, err := h.Fig1()
		if err != nil {
			return err
		}
		fmt.Println(harness.Fig1Table(res))
		return nil
	})
	run("fig6", func() error {
		res, err := h.Fig6()
		if err != nil {
			return err
		}
		fmt.Println(harness.Fig6Table(res))
		return rd.Write("fig6_sweep.csv", "sweep", func(w io.Writer) error {
			return harness.WriteFig6CSV(w, res)
		})
	})
	run("fig7", func() error {
		res, err := h.Fig7()
		if err != nil {
			return err
		}
		fmt.Println(harness.Fig7Table(res))
		if *plot {
			labels := make([]string, len(res))
			values := make([]float64, len(res))
			for i, r := range res {
				labels[i], values[i] = r.Label, r.Speedup
			}
			fmt.Println(metrics.BarChart("Figure 7 (geomean speedup)", labels, values, 40))
		}
		return rd.Write("fig7_factors.csv", "sweep", func(w io.Writer) error {
			return harness.WriteFig7CSV(w, res)
		})
	})
	run("fig8", func() error {
		res, err := h.Fig8()
		if err != nil {
			return err
		}
		if res.IPC == nil {
			// Shard mode: only the owned per-run rows exist; the group
			// tables need the full matrix and are built after the merge.
			fmt.Printf("fig8 shard %s: %d runs (rejoin with 'bbreport merge' for the group tables)\n",
				*shardSpec, len(res.PerRun))
		} else {
			fmt.Println(res.IPC.String())
			fmt.Println(res.HBM.String())
			fmt.Println(res.DRAM.String())
			fmt.Println(res.Energy.String())
			fmt.Println(res.Summary())
			if *plot {
				fmt.Println(res.IPC.TableBars("All", 40))
				fmt.Println(res.HBM.TableBars("All", 40))
				fmt.Println(res.Energy.TableBars("All", 40))
			}
		}
		if of.TraceOut != "" {
			if err := report.WriteFile(of.TraceOut, func(w io.Writer) error {
				return harness.WriteChromeTrace(w, res.PerRun)
			}); err != nil {
				return err
			}
		}
		if err := rd.Write("fig8_runs.csv", "runs", func(w io.Writer) error {
			return harness.WriteRunsCSV(w, res.PerRun)
		}); err != nil {
			return err
		}
		if of.TelemetryEpoch > 0 {
			if err := rd.Write("runs_timeline.csv", "timeline", func(w io.Writer) error {
				return harness.WriteTimelineCSV(w, res.PerRun)
			}); err != nil {
				return err
			}
			if err := rd.Write("runs_latency.csv", "latency", func(w io.Writer) error {
				return harness.WriteLatencyCSV(w, res.PerRun)
			}); err != nil {
				return err
			}
		}
		if res.IPC == nil {
			return nil // shard mode stops at the mergeable per-run outputs
		}
		if err := rd.Write("alerts.json", "alerts", func(w io.Writer) error {
			return harness.WriteAlertsJSON(w, res.PerRun, cli.Rules)
		}); err != nil {
			return err
		}
		for _, p := range []struct {
			name string
			t    *metrics.Table
		}{
			{"fig8a_ipc.csv", res.IPC},
			{"fig8b_hbm.csv", res.HBM},
			{"fig8c_dram.csv", res.DRAM},
			{"fig8d_energy.csv", res.Energy},
		} {
			if err := rd.Write(p.name, "table", func(w io.Writer) error {
				return harness.WriteTableCSV(w, p.t)
			}); err != nil {
				return err
			}
		}
		return nil
	})
	run("mix", func() error {
		res, err := h.Mix(nil)
		if err != nil {
			return err
		}
		fmt.Println(harness.MixTable(nil, res))
		return nil
	})
	run("mal", func() error {
		res, err := h.MAL()
		if err != nil {
			return err
		}
		fmt.Println(harness.MALTable(res))
		return nil
	})
	run("figfault", func() error {
		res, err := h.FigFaultWith(harness.Fig8Designs, rates)
		if err != nil {
			return err
		}
		fmt.Println(res.Table().String())
		if err := rd.Write("figfault_sweep.csv", "sweep", func(w io.Writer) error {
			return harness.WriteFigFaultCSV(w, res)
		}); err != nil {
			return err
		}
		return rd.Write("alerts.json", "alerts", func(w io.Writer) error {
			return harness.WriteAlertsJSON(w, res.PerRun, cli.Rules)
		})
	})
	// The check sweep's output is deterministic at any -parallel value;
	// the process exits nonzero when any cell reports a violation.
	run("check", func() error {
		s := check.DefaultSuite(h.System(), int(*accesses))
		s.Parallel = of.Parallel
		s.Timeout = of.CellTimeout
		res, err := s.Run()
		if err != nil {
			return err
		}
		fmt.Print(check.Table(res))
		if bad := check.Violations(res); len(bad) > 0 {
			return fmt.Errorf("%d of %d cells reported violations", len(bad), len(res))
		}
		return nil
	})
	run("metadata", func() error {
		fmt.Println(harness.MetadataReport())
		return nil
	})
	run("overfetch", func() error {
		res, err := h.Overfetch()
		if err != nil {
			return err
		}
		fmt.Printf("== Section IV-B: over-fetching (data brought into HBM but unused) ==\n")
		fmt.Printf("bumblebee %5.1f%%   (paper: 13.3%%)\n", res.Bumblebee*100)
		fmt.Printf("hybrid2   %5.1f%%   (paper: 13.7%%)\n", res.Hybrid2*100)
		return nil
	})

	// Flush everything even after an interrupt: the journal's tail, a
	// partial manifest (outputs of the experiments that completed) and the
	// session record make the directory a self-describing resume point.
	if err := cli.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "bbrepro: %v\n", err)
		os.Exit(1)
	}
	if err := rd.Close(report.NewSession(h.Parallel, start)); err != nil {
		fmt.Fprintf(os.Stderr, "bbrepro: %v\n", err)
		os.Exit(1)
	}
	if interrupted {
		os.Exit(ckpt.ExitResumable)
	}
}
