// Command bbreport analyzes bumblebee run directories and benchmark
// ledgers.
//
//	bbreport report runs/a runs/b        # joined Markdown report + anomaly flags
//	bbreport html -o dash.html runs/a runs/b        # self-contained HTML dashboard
//	bbreport verify runs/a               # re-hash outputs against manifest.json
//	bbreport merge -o merged shard1 shard2 shard3   # verified shard merge
//	bbreport trace runs/<job>/service_trace.json    # critical path + span analysis
//	bbreport bench -parse bench.txt -o BENCH_bumblebee.json
//	bbreport bench -compare new.json -against BENCH_bumblebee.json
//
// `report` joins manifest.json, runs CSVs, the telemetry timeline and the
// latency table of one or more run directories into deterministic
// Markdown with cross-run deltas and rule-based anomaly flags. `bench`
// turns `go test -bench` output into the schema-stable regression ledger
// and gates a fresh ledger against a committed baseline, exiting nonzero
// on regression.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/alert"
	"repro/internal/report"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func usage(stderr io.Writer) int {
	fmt.Fprintln(stderr, "usage: bbreport report|html|verify|merge|trace|bench [flags] [args]")
	return 2
}

// run is the testable entry point; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		return usage(stderr)
	}
	switch args[0] {
	case "report":
		return runReport(args[1:], stdout, stderr)
	case "html":
		return runHTML(args[1:], stdout, stderr)
	case "verify":
		return runVerify(args[1:], stdout, stderr)
	case "merge":
		return runMerge(args[1:], stdout, stderr)
	case "trace":
		return runTrace(args[1:], stdout, stderr)
	case "bench":
		return runBench(args[1:], stdout, stderr)
	default:
		return usage(stderr)
	}
}

func runReport(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("o", "", "write the Markdown here instead of stdout")
	session := fs.Bool("session", false, "include volatile session.json facts (breaks byte-determinism across invocations)")
	rulesFile := fs.String("rules", "", "alert rule file (JSON) setting the anomaly thresholds; empty uses the built-in rules")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "bbreport report: need at least one run directory")
		return 2
	}
	var runs []*report.Run
	for _, dir := range fs.Args() {
		r, err := report.LoadRun(dir)
		if err != nil {
			fmt.Fprintf(stderr, "bbreport report: %v\n", err)
			return 1
		}
		runs = append(runs, r)
	}
	opts := report.Options{Session: *session}
	if *rulesFile != "" {
		rs, err := alert.Load(*rulesFile)
		if err != nil {
			fmt.Fprintf(stderr, "bbreport report: -rules: %v\n", err)
			return 2
		}
		opts.RuleSet = &rs
	}
	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(stderr, "bbreport report: %v\n", err)
			return 1
		}
		defer f.Close()
		w = f
	}
	if err := report.WriteMarkdown(w, runs, opts); err != nil {
		fmt.Fprintf(stderr, "bbreport report: %v\n", err)
		return 1
	}
	return 0
}

// runHTML renders run directories into the single-file HTML dashboard:
// inline SVG sparklines, per-tier latency tables, alert annotations and
// the cross-design comparison grid, with no external assets — the same
// byte-determinism contract as `bbreport report`.
func runHTML(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("html", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("o", "", "write the HTML here instead of stdout")
	rulesFile := fs.String("rules", "", "alert rule file (JSON); forces recomputation instead of using recorded alerts.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "bbreport html: need at least one run directory")
		return 2
	}
	var runs []*report.Run
	for _, dir := range fs.Args() {
		r, err := report.LoadRun(dir)
		if err != nil {
			fmt.Fprintf(stderr, "bbreport html: %v\n", err)
			return 1
		}
		runs = append(runs, r)
	}
	var opts report.Options
	if *rulesFile != "" {
		rs, err := alert.Load(*rulesFile)
		if err != nil {
			fmt.Fprintf(stderr, "bbreport html: -rules: %v\n", err)
			return 2
		}
		opts.RuleSet = &rs
	}
	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(stderr, "bbreport html: %v\n", err)
			return 1
		}
		defer f.Close()
		w = f
	}
	if err := report.WriteHTML(w, runs, opts); err != nil {
		fmt.Fprintf(stderr, "bbreport html: %v\n", err)
		return 1
	}
	return 0
}

func runVerify(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("verify", flag.ContinueOnError)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "bbreport verify: need at least one run directory")
		return 2
	}
	bad := 0
	for _, dir := range fs.Args() {
		m, err := report.ReadManifest(dir)
		if err != nil {
			fmt.Fprintf(stderr, "bbreport verify: %v\n", err)
			return 1
		}
		errs := m.Verify(dir)
		for _, e := range errs {
			fmt.Fprintf(stderr, "bbreport verify: %s: %v\n", dir, e)
		}
		if len(errs) > 0 {
			bad++
			continue
		}
		fmt.Fprintf(stdout, "%s: %d outputs verified\n", dir, len(m.Outputs))
	}
	if bad > 0 {
		return 1
	}
	return 0
}

// runMerge joins -shard k/n run directories back into the directory the
// unsharded sweep would have written, refusing on any verification
// failure (tampered shard, duplicate or missing shard index, mismatched
// sweep identity). See report.Merge for the reconstruction contract.
func runMerge(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("merge", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("o", "", "write the merged run directory here (required)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *out == "" {
		fmt.Fprintln(stderr, "bbreport merge: need -o <merged-dir>")
		return 2
	}
	if fs.NArg() < 2 {
		fmt.Fprintln(stderr, "bbreport merge: need at least two shard directories")
		return 2
	}
	res, err := report.Merge(*out, fs.Args())
	if err != nil {
		fmt.Fprintf(stderr, "bbreport merge: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s: merged %d shards, %d rows across %d files (%s)\n",
		*out, res.Shards, res.Rows, len(res.Files), strings.Join(res.Files, ", "))
	return 0
}

// runTrace renders the span-tree analysis of a bbserve
// service_trace.json: critical path, per-span duration aggregates, and
// anomaly rules (queue-dominated, decode-dominated, admission-dominated).
func runTrace(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("o", "", "write the Markdown here instead of stdout")
	rulesFile := fs.String("rules", "", "alert rule file (JSON); overrides the default trace rules")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "bbreport trace: need one service_trace.json (or a run directory containing it)")
		return 2
	}
	path := fs.Arg(0)
	if st, err := os.Stat(path); err == nil && st.IsDir() {
		path = filepath.Join(path, "service_trace.json")
	}
	spans, err := report.LoadServiceTrace(path)
	if err != nil {
		fmt.Fprintf(stderr, "bbreport trace: %v\n", err)
		return 1
	}
	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(stderr, "bbreport trace: %v\n", err)
			return 1
		}
		defer f.Close()
		w = f
	}
	rs, err := alert.Load(*rulesFile)
	if err != nil {
		fmt.Fprintf(stderr, "bbreport trace: -rules: %v\n", err)
		return 2
	}
	if err := report.WriteTraceMarkdownRules(w, spans, rs); err != nil {
		fmt.Fprintf(stderr, "bbreport trace: %v\n", err)
		return 1
	}
	return 0
}

func runBench(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	parse := fs.String("parse", "", "parse `go test -bench` text output from this file (- for stdin) into a ledger")
	out := fs.String("o", "", "write the parsed ledger here instead of stdout")
	compare := fs.String("compare", "", "current ledger JSON to gate (- for stdin)")
	against := fs.String("against", "", "baseline ledger JSON to gate -compare against")
	tol := fs.Float64("tolerance", 0, "relative tolerance for model metrics (0 picks the default 0.001)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	open := func(path string) (io.ReadCloser, error) {
		if path == "-" {
			return io.NopCloser(os.Stdin), nil
		}
		return os.Open(path)
	}

	switch {
	case *parse != "":
		f, err := open(*parse)
		if err != nil {
			fmt.Fprintf(stderr, "bbreport bench: %v\n", err)
			return 1
		}
		ledger, err := report.ParseBench(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(stderr, "bbreport bench: %v\n", err)
			return 1
		}
		if len(ledger.Benchmarks) == 0 {
			fmt.Fprintln(stderr, "bbreport bench: no benchmark lines found")
			return 1
		}
		w := stdout
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				fmt.Fprintf(stderr, "bbreport bench: %v\n", err)
				return 1
			}
			defer f.Close()
			w = f
		}
		if err := ledger.WriteJSON(w); err != nil {
			fmt.Fprintf(stderr, "bbreport bench: %v\n", err)
			return 1
		}
		return 0

	case *compare != "":
		if *against == "" {
			fmt.Fprintln(stderr, "bbreport bench: -compare needs -against <baseline.json>")
			return 2
		}
		read := func(path string) (*report.BenchFile, error) {
			f, err := open(path)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			return report.ReadBenchJSON(f)
		}
		base, err := read(*against)
		if err != nil {
			fmt.Fprintf(stderr, "bbreport bench: %v\n", err)
			return 1
		}
		cur, err := read(*compare)
		if err != nil {
			fmt.Fprintf(stderr, "bbreport bench: %v\n", err)
			return 1
		}
		regs := report.Compare(base, cur, report.CompareOptions{ModelTol: *tol})
		if len(regs) > 0 {
			for _, r := range regs {
				fmt.Fprintf(stderr, "REGRESSION %s\n", r)
			}
			fmt.Fprintf(stderr, "bbreport bench: %d regression(s) against %s\n", len(regs), *against)
			return 1
		}
		fmt.Fprintf(stdout, "bench: %d benchmarks within tolerance of %s\n", len(base.Benchmarks), *against)
		return 0

	default:
		fmt.Fprintln(stderr, "bbreport bench: need -parse or -compare")
		return 2
	}
}
