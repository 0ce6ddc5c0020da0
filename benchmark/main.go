// Command benchmark measures the simulator's host time on four workloads
// that stress different layers: the Figure 8 sweep, a generator-heavy and
// a memory-heavy Bumblebee run, and a recorded trace replayed on every
// design. Every rep runs in a fresh child process; simulated outputs are
// checked for conservation laws and digested, and a separate traced run
// times the calls into each layer. See README.md.
//
// Usage, from the repository root:
//
//	bash benchmark/run.sh [-workloads a,b] [-seed n] [-reps n | -seconds s] [-trace] [-out dir] [-quick]
//	bash benchmark/run.sh -compare old.json new.json
//
// BENCHMARK.json runs it as
// "bash benchmark/run.sh --workload w --seed n --seconds s --trace 0|1".
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// childEnv marks a process started by the benchmark as one of its
// children, so a test binary re-executed as a child runs the benchmark
// instead of its tests.
const childEnv = "REPRO_BENCHMARK_CHILD"

// childTimeout bounds one child; the longest full-size rep takes seconds.
const childTimeout = 150 * time.Second

// defaultSeconds is the measuring time of a run without -reps or
// -seconds: BENCHMARK.json's run_seconds.
const defaultSeconds = 25

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	names   string
	seed    uint64
	reps    int
	seconds float64
	trace   bool
	out     string
	quick   bool
	compare bool
	child   string
	input   string
}

func parseFlags(args []string, stderr io.Writer) (*options, []string, error) {
	o := &options{}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.names, "workloads", "all", "comma-separated workloads to run, or all")
	fs.StringVar(&o.names, "workload", "all", "alias of -workloads, the name BENCHMARK.json's invocation uses")
	fs.Uint64Var(&o.seed, "seed", 1, "seed the seeded workloads derive their traces from")
	fs.IntVar(&o.reps, "reps", 0, "reps per workload; 0 runs rounds of reps for -seconds")
	fs.Float64Var(&o.seconds, "seconds", defaultSeconds, "measuring time of the whole run when -reps is 0")
	fs.BoolVar(&o.trace, "trace", false, "add traced runs and report the per-layer metrics")
	fs.StringVar(&o.out, "out", "", "directory for results.json and, with -trace, trace.json")
	fs.BoolVar(&o.quick, "quick", false, "tiny access counts, for tests")
	fs.BoolVar(&o.compare, "compare", false, "compare two results files: -compare old.json new.json")
	fs.StringVar(&o.child, "child", "", "run one rep in this process: untraced or traced (internal)")
	fs.StringVar(&o.input, "input", "", "replay-all's recorded trace (internal)")
	if err := fs.Parse(boolArgs(args, "trace")); err != nil {
		return nil, nil, err
	}
	return o, fs.Args(), nil
}

// boolArgs rewrites "-trace 0|1|true|false" as "-trace=<v>": BENCHMARK.json's
// invocation passes "--trace 0|1", and the standard flag package reads a
// boolean flag's value only in the joined form.
func boolArgs(args []string, name string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-"+name || a == "--"+name) && i+1 < len(args) {
			if _, err := strconv.ParseBool(args[i+1]); err == nil {
				out = append(out, a+"="+args[i+1])
				i++
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

func run(args []string, stdout, stderr io.Writer) int {
	o, rest, err := parseFlags(args, stderr)
	if err != nil {
		return 2
	}
	if o.compare {
		return runCompare(rest, stdout, stderr)
	}
	if len(rest) > 0 {
		fmt.Fprintf(stderr, "benchmark: unexpected arguments %q\n", rest)
		return 2
	}
	ws, err := selectWorkloads(o.names)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if o.child != "" {
		return runChild(o, ws, stdout, stderr)
	}
	return runParent(o, ws, stdout, stderr)
}

func selectWorkloads(names string) ([]*workload, error) {
	if names == "all" {
		return workloads, nil
	}
	var ws []*workload
	for _, n := range strings.Split(names, ",") {
		w, err := findWorkload(strings.TrimSpace(n))
		if err != nil {
			return nil, err
		}
		ws = append(ws, w)
	}
	return ws, nil
}

// runChild measures one rep of one workload and prints its report as JSON.
func runChild(o *options, ws []*workload, stdout, stderr io.Writer) int {
	if len(ws) != 1 {
		fmt.Fprintln(stderr, "benchmark: a child runs exactly one workload")
		return 2
	}
	e := newEnv(ws[0], o.seed, o.quick, o.input)
	var rep any
	var err error
	switch o.child {
	case "untraced":
		rep, err = runUntraced(e)
	case "traced":
		rep, err = runTraced(e)
	default:
		err = fmt.Errorf("unknown child role %q", o.child)
	}
	if err == nil {
		err = json.NewEncoder(stdout).Encode(rep)
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchmark child %s %s: %v\n", o.child, ws[0].Name, err)
		return 1
	}
	return 0
}

// state collects one workload's children.
type state struct {
	w        *workload
	input    string
	untraced []*untracedReport
	traced   []*tracedReport
	res      workloadResult
}

func (s *state) fail(cells int, msg string) {
	s.res.CellsFailed += cells
	s.res.Failures = append(s.res.Failures, msg)
}

func runParent(o *options, ws []*workload, stdout, stderr io.Writer) int {
	tmp, err := os.MkdirTemp("", "benchmark-")
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	st := machineStamp()
	fmt.Fprintf(stdout, "machine: %s\n", st)
	states := make([]*state, len(ws))
	for i, w := range ws {
		s := &state{w: w, res: workloadResult{Name: w.Name, Why: w.Why, Seeded: w.Seeded}}
		if w.Name == "replay-all" {
			// Input prep, not timed: the recording every cell replays.
			n := w.Accesses
			if o.quick {
				n = w.Quick
			}
			dir := filepath.Join(tmp, w.Name)
			if err := os.Mkdir(dir, 0o755); err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
			if s.input, err = recordReplay(dir, o.seed, n); err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
		}
		states[i] = s
	}

	// Reps interleave across workloads, so a slow phase of a shared
	// machine spreads over all of them instead of landing on one.
	budget := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
	for round := 0; o.reps <= 0 || round < o.reps; round++ {
		if o.reps <= 0 && round > 0 {
			perRound := time.Since(start) / time.Duration(round)
			if time.Since(start)+perRound > budget {
				break
			}
		}
		for _, s := range states {
			s.runRep(o, stderr)
			if o.trace {
				s.runTraced(o, stderr)
			}
		}
	}

	res := &results{Stamp: st, Seed: o.seed, Quick: o.quick}
	final := finalLine{Metrics: map[string]metricValue{}}
	for _, s := range states {
		s.summarize(o.trace)
		s.print(stdout, o.trace)
		res.Workloads = append(res.Workloads, s.res)
		final.Attempted += s.res.CellsAttempted
		final.Failed += s.res.CellsFailed
		prefix := ""
		if len(states) > 1 {
			prefix = s.w.Name + "/"
		}
		defs, vals := endToEnd, s.res.Metrics
		if o.trace {
			defs, vals = perLayer, s.res.Layers
		}
		for _, d := range defs {
			if v, ok := vals[d.Name]; ok && v.N > 0 {
				final.Metrics[prefix+d.Name] = metricValue{v.Median, d.Unit}
			}
		}
	}
	final.Correct = final.Failed == 0
	if o.out != "" {
		if err := writeOutputs(o.out, res, states, o.trace); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			final.Correct = false
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !final.Correct {
		return 1
	}
	return 0
}

// spawn runs one child and decodes its report into rep.
func (s *state) spawn(o *options, role string, rep any, stderr io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	args := []string{"-child", role, "-workloads", s.w.Name, "-seed", strconv.FormatUint(o.seed, 10)}
	if s.input != "" {
		args = append(args, "-input", s.input)
	}
	if o.quick {
		args = append(args, "-quick")
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	// The kernel kills a child whose parent dies, so a benchmark stopped
	// by a signal leaves no simulation running.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stderr = stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("%s child: %w", role, err)
	}
	return json.Unmarshal(out, rep)
}

func (s *state) runRep(o *options, stderr io.Writer) {
	rep := &untracedReport{}
	planned := len(s.w.cells(newEnv(s.w, o.seed, o.quick, s.input)))
	s.res.CellsAttempted += planned
	if err := s.spawn(o, "untraced", rep, stderr); err != nil {
		s.fail(planned, err.Error())
		return
	}
	if rep.Failed > 0 {
		s.fail(rep.Failed, strings.Join(rep.Failures, "; "))
	}
	if len(s.untraced) > 0 && rep.Digest != s.untraced[0].Digest {
		s.fail(planned, fmt.Sprintf("sim_digest of rep %d differs from rep 1", len(s.untraced)+1))
	}
	s.untraced = append(s.untraced, rep)
}

func (s *state) runTraced(o *options, stderr io.Writer) {
	rep := &tracedReport{}
	planned := len(s.w.cells(newEnv(s.w, o.seed, o.quick, s.input)))
	s.res.CellsAttempted += planned
	if err := s.spawn(o, "traced", rep, stderr); err != nil {
		s.fail(planned, err.Error())
		return
	}
	if rep.Failed > 0 {
		s.fail(rep.Failed, strings.Join(rep.Failures, "; "))
	}
	if len(s.untraced) > 0 {
		// The traced run must have measured the same program. Fig8 seeds
		// by cell identity, a rule that belongs to the harness, so there a
		// mismatch is reported without failing the cell.
		var diff []string
		for key, d := range rep.CellDigests {
			if u, ok := s.untraced[0].CellDigests[key]; ok && u != d {
				diff = append(diff, key)
			}
		}
		sort.Strings(diff)
		if len(diff) > 0 {
			msg := "traced results differ from untraced: " + strings.Join(diff, ", ")
			if s.w.Seeded {
				s.fail(len(diff), msg)
			} else {
				s.res.Notes = append(s.res.Notes, msg)
			}
		}
	}
	s.traced = append(s.traced, rep)
}
