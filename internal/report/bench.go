package report

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// The benchmark-regression ledger: `go test -bench` output parsed into a
// schema-stable JSON file (BENCH_bumblebee.json) that CI commits as a
// baseline and compares fresh runs against.
//
// The ledger holds model metrics only: the custom units benches report
// through b.ReportMetric (e.g. "ipc:bumblebee", "mpki:mcf"). They are
// pure functions of the simulation, so any drift beyond float noise means
// the model's behaviour changed — gated tightly, in both directions. The
// host-time metrics go test reports itself (ns/op, B/op, allocs/op, MB/s)
// are dropped at parse time: host time has one home, the benchmark
// module (benchmark/README.md), which stamps the machine it ran on.

// BenchSchemaVersion is bumped on any incompatible ledger change.
const BenchSchemaVersion = 1

// Benchmark is one parsed benchmark: its name (with the -N GOMAXPROCS
// suffix stripped) and every reported metric by unit.
type Benchmark struct {
	Name    string             `json:"name"`
	Metrics map[string]float64 `json:"metrics"`
}

// BenchFile is the ledger file. Iteration counts are deliberately
// excluded: they vary run to run and would churn the committed baseline.
type BenchFile struct {
	Schema     int         `json:"schema"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// timeUnits are the host-time metrics go test reports itself; ParseBench
// drops them.
var timeUnits = map[string]bool{"ns/op": true, "B/op": true, "allocs/op": true, "MB/s": true}

// ParseBench parses `go test -bench` text output. Lines that are not
// benchmark results (goos/pkg headers, PASS, logs) are skipped.
func ParseBench(r io.Reader) (*BenchFile, error) {
	out := &BenchFile{Schema: BenchSchemaVersion}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// Shape: BenchmarkName[-N] <iters> (<value> <unit>)+
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			continue
		}
		name := fields[0]
		// Strip the -GOMAXPROCS suffix so ledgers from machines with
		// different core counts compare by benchmark identity.
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		b := Benchmark{Name: name, Metrics: map[string]float64{}}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bench: %s: bad value %q", name, fields[i])
			}
			if !timeUnits[fields[i+1]] {
				b.Metrics[fields[i+1]] = v
			}
		}
		out.Benchmarks = append(out.Benchmarks, b)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	sort.Slice(out.Benchmarks, func(i, j int) bool {
		return out.Benchmarks[i].Name < out.Benchmarks[j].Name
	})
	return out, nil
}

// WriteJSON renders the ledger as stable JSON (sorted benchmarks, sorted
// metric keys, trailing newline).
func (f *BenchFile) WriteJSON(w io.Writer) error {
	sort.Slice(f.Benchmarks, func(i, j int) bool {
		return f.Benchmarks[i].Name < f.Benchmarks[j].Name
	})
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// ReadBenchJSON loads a ledger file.
func ReadBenchJSON(r io.Reader) (*BenchFile, error) {
	var f BenchFile
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, err
	}
	if f.Schema != BenchSchemaVersion {
		return nil, fmt.Errorf("bench: schema %d, this binary reads %d", f.Schema, BenchSchemaVersion)
	}
	return &f, nil
}

// CompareOptions are the regression tolerances.
type CompareOptions struct {
	// ModelTol is the relative tolerance for model metrics (default
	// 0.001). Exceeding it in either direction is a regression: the
	// simulation is deterministic, so the baseline should reproduce
	// exactly and the tolerance only absorbs float formatting.
	ModelTol float64
}

func (o CompareOptions) defaults() CompareOptions {
	if o.ModelTol == 0 {
		o.ModelTol = 0.001
	}
	return o
}

// Regression is one gated difference between baseline and current.
type Regression struct {
	Bench  string
	Metric string
	Old    float64
	New    float64
	Reason string
}

func (r Regression) String() string {
	return fmt.Sprintf("%s %s: %g -> %g (%s)", r.Bench, r.Metric, r.Old, r.New, r.Reason)
}

// Compare gates current against baseline and returns every regression,
// sorted by (bench, metric). A benchmark present in the baseline but
// missing from current is a regression (coverage loss); a new benchmark
// in current is not.
func Compare(baseline, current *BenchFile, opts CompareOptions) []Regression {
	opts = opts.defaults()
	cur := map[string]Benchmark{}
	for _, b := range current.Benchmarks {
		cur[b.Name] = b
	}
	var regs []Regression
	for _, old := range baseline.Benchmarks {
		now, ok := cur[old.Name]
		if !ok {
			regs = append(regs, Regression{Bench: old.Name, Reason: "benchmark missing from current run"})
			continue
		}
		units := make([]string, 0, len(old.Metrics))
		for u := range old.Metrics {
			units = append(units, u)
		}
		sort.Strings(units)
		for _, u := range units {
			ov := old.Metrics[u]
			nv, ok := now.Metrics[u]
			if !ok {
				regs = append(regs, Regression{Bench: old.Name, Metric: u, Old: ov,
					Reason: "model metric missing from current run"})
				continue
			}
			scale := maxF(absF(ov), 1e-12)
			if absF(nv-ov) > opts.ModelTol*scale {
				regs = append(regs, Regression{Bench: old.Name, Metric: u, Old: ov, New: nv,
					Reason: fmt.Sprintf("model metric beyond %g relative tolerance", opts.ModelTol)})
			}
		}
	}
	sort.Slice(regs, func(i, j int) bool {
		if regs[i].Bench != regs[j].Bench {
			return regs[i].Bench < regs[j].Bench
		}
		return regs[i].Metric < regs[j].Metric
	})
	return regs
}

func absF(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
