package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestMain lets the test binary serve as the benchmark's child process:
// the parent re-executes os.Executable, which under go test is this
// binary.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// benchmarkJSON is the declaration at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []metricDef `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestBenchmarkJSONMatchesDeclarations(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("BENCHMARK.json run_seconds %d, the code's default %d", bj.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(bj.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end\n%+v\ndiffers from the code's\n%+v", bj.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bj.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer\n%+v\ndiffers from the code's\n%+v", bj.PerLayer, perLayer)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.Name || bj.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %+v, code %q: %q", i, bj.Workloads[i], w.Name, w.Why)
		}
	}
}

func TestBoolArgsAcceptsSeparateValue(t *testing.T) {
	got := boolArgs([]string{"--workload", "x", "--trace", "0", "-trace", "1", "-trace", "-out", "d"}, "trace")
	want := []string{"--workload", "x", "--trace=0", "-trace=1", "-trace", "-out", "d"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("boolArgs = %q, want %q", got, want)
	}
}

// TestQuickSmoke runs every workload once untraced and once traced at
// tiny access counts, through real child processes.
func TestQuickSmoke(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	dir := t.TempDir()
	var out, errb bytes.Buffer
	if code := run([]string{"-quick", "-reps", "1", "-trace", "-out", dir}, &out, &errb); code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")

	// Every declared metric is printed by name with its unit.
	for _, d := range append(append([]metricDef{}, bj.EndToEnd...), bj.PerLayer...) {
		found := false
		for _, l := range lines {
			f := strings.Fields(l)
			if len(f) >= 2 && f[0] == d.Name && f[1] == d.Unit {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("metric %s (%s) not printed", d.Name, d.Unit)
		}
	}

	var final finalLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &final); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	if !final.Correct || final.Failed != 0 || final.Attempted < 1 {
		t.Errorf("result %+v", final)
	}
	for _, w := range workloads {
		for _, d := range bj.PerLayer {
			if v, ok := final.Metrics[w.Name+"/"+d.Name]; !ok || v.Unit != d.Unit {
				t.Errorf("final line lacks %s/%s", w.Name, d.Name)
			}
		}
	}

	res, err := loadResults(filepath.Join(dir, "results.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range res.Workloads {
		if w.CellsFailed != 0 || w.SimDigest == "" || len(w.Notes) != 0 {
			t.Errorf("%s: failed %d, digest %q, notes %v", w.Name, w.CellsFailed, w.SimDigest, w.Notes)
		}
	}
	checkChromeTrace(t, filepath.Join(dir, "trace.json"))
}

// checkChromeTrace asserts trace.json parses as a Chrome trace in which
// every cell's run span holds its trace-layer and hmm children.
func checkChromeTrace(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []struct {
			Name    string
			Ph      string
			TS, Dur float64
			PID     int
			Args    map[string]any
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatalf("trace.json: %v", err)
	}
	type key struct{ pid, id int }
	runs := map[key]int{} // run span -> event index
	for i, e := range f.TraceEvents {
		if e.Ph == "X" && e.Name == "run" {
			runs[key{e.PID, int(e.Args["id"].(float64))}] = i
		}
	}
	if len(runs) == 0 {
		t.Fatal("trace.json has no run spans")
	}
	children := map[key][]string{}
	for _, e := range f.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		k := key{e.PID, int(e.Args["parent"].(float64))}
		ri, ok := runs[k]
		if !ok {
			continue
		}
		r := f.TraceEvents[ri]
		const slack = 1e-3 // microseconds of float rounding
		if e.TS < r.TS-slack || e.TS+e.Dur > r.TS+r.Dur+slack {
			t.Errorf("%s [%v, +%v] escapes its run span [%v, +%v]", e.Name, e.TS, e.Dur, r.TS, r.Dur)
		}
		children[k] = append(children[k], e.Name)
	}
	for k := range runs {
		got := children[k]
		if len(got) != 2 || (got[0] != "trace" && got[0] != "tracecodec") || !strings.HasPrefix(got[1], "hmm/") {
			t.Errorf("run span %v has children %v, want the trace layer and hmm", k, got)
		}
	}
}
