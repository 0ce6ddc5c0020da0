package report

import (
	"bytes"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkTable2Workloads/mcf-8 	       1	 123456789 ns/op	         0.0870 ipc:bumblebee	       666.0 mpki:mcf
BenchmarkTable2Workloads/xz-8 	       1	  98765432 ns/op	    4096 B/op	      12 allocs/op	         0.0650 ipc:bumblebee
BenchmarkOverfetch 	       1	1794716096 ns/op	        35.43 overfetch%:bumblebee	        58.95 overfetch%:hybrid2
PASS
ok  	repro	3.1s
`

func parseSample(t *testing.T, text string) *BenchFile {
	t.Helper()
	f, err := ParseBench(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestParseBench(t *testing.T) {
	f := parseSample(t, sampleBench)
	if len(f.Benchmarks) != 3 {
		t.Fatalf("want 3 benchmarks, got %+v", f.Benchmarks)
	}
	// Sorted by name, -N GOMAXPROCS suffix stripped.
	if f.Benchmarks[0].Name != "BenchmarkOverfetch" ||
		f.Benchmarks[1].Name != "BenchmarkTable2Workloads/mcf" ||
		f.Benchmarks[2].Name != "BenchmarkTable2Workloads/xz" {
		t.Fatalf("names: %+v", f.Benchmarks)
	}
	m := f.Benchmarks[1].Metrics
	if m["ipc:bumblebee"] != 0.0870 || m["mpki:mcf"] != 666.0 || len(m) != 2 {
		t.Fatalf("metrics: %+v", m)
	}
	// Host time has its own ledger (the benchmark module): go test's
	// ns/op, B/op and allocs/op never enter this one.
	if m := f.Benchmarks[2].Metrics; len(m) != 1 || m["ipc:bumblebee"] != 0.0650 {
		t.Fatalf("host-time metrics kept: %+v", m)
	}
}

// TestBenchJSONStable checks the ledger bytes do not depend on parse
// order and survive a write/read round-trip.
func TestBenchJSONStable(t *testing.T) {
	f := parseSample(t, sampleBench)
	var a, b bytes.Buffer
	if err := f.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBenchJSON(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := got.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("round-trip changed bytes:\n%s\nvs\n%s", a.String(), b.String())
	}
	if !strings.Contains(a.String(), `"schema": 1`) {
		t.Fatalf("missing schema stamp:\n%s", a.String())
	}
}

// TestCompareGatesModelMetrics is the regression-ledger acceptance test:
// an injected drift in a deterministic model metric beyond tolerance must
// be reported, in either direction, while float noise within tolerance
// passes.
func TestCompareGatesModelMetrics(t *testing.T) {
	base := parseSample(t, sampleBench)
	cur := parseSample(t, sampleBench)

	if regs := Compare(base, cur, CompareOptions{}); len(regs) != 0 {
		t.Fatalf("identical ledgers flagged: %v", regs)
	}

	// Within the 0.001 relative default: not a regression.
	cur.Benchmarks[1].Metrics["ipc:bumblebee"] = 0.0870 * 1.0005
	if regs := Compare(base, cur, CompareOptions{}); len(regs) != 0 {
		t.Fatalf("within-tolerance drift flagged: %v", regs)
	}

	// Beyond it — and an *improvement*: still a regression, because a
	// deterministic model that moved means behaviour changed.
	cur.Benchmarks[1].Metrics["ipc:bumblebee"] = 0.0870 * 1.05
	regs := Compare(base, cur, CompareOptions{})
	if len(regs) != 1 || regs[0].Metric != "ipc:bumblebee" {
		t.Fatalf("injected model drift not gated: %v", regs)
	}
}

func TestCompareMissingBenchmark(t *testing.T) {
	base := parseSample(t, sampleBench)
	cur := parseSample(t, sampleBench)
	cur.Benchmarks = cur.Benchmarks[1:] // drop BenchmarkOverfetch

	regs := Compare(base, cur, CompareOptions{})
	if len(regs) != 1 || regs[0].Bench != "BenchmarkOverfetch" {
		t.Fatalf("lost coverage not gated: %v", regs)
	}
	// Extra benchmarks in current are fine — the baseline just hasn't
	// caught up yet.
	if regs := Compare(cur, base, CompareOptions{}); len(regs) != 0 {
		t.Fatalf("new benchmark flagged: %v", regs)
	}
}
