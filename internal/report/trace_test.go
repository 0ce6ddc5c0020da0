package report

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/alert"
)

// fixtureSpans loads the committed service_trace.json fixture: a
// ten-span tree for job "job-fixture" whose queue wait (700 µs) exceeds
// its simulate total (600 µs), so exactly one anomaly rule fires.
func fixtureSpans(t *testing.T) []TraceSpan {
	t.Helper()
	spans, err := LoadServiceTrace(filepath.Join("testdata", "service_trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	return spans
}

func TestLoadServiceTrace(t *testing.T) {
	spans := fixtureSpans(t)
	if len(spans) != 10 {
		t.Fatalf("got %d spans, want 10 (counters and metadata must be skipped)", len(spans))
	}
	root := spans[0]
	if root.ID != 1 || root.Parent != 0 || root.Name != "job" || root.Job != "job-fixture" {
		t.Errorf("bad root: %+v", root)
	}
	if root.DurUS != 1500 || root.Status != "ok" {
		t.Errorf("root dur/status: %+v", root)
	}
	for i, s := range spans {
		if s.ID != uint64(i+1) {
			t.Errorf("spans not sorted by ID: index %d has ID %d", i, s.ID)
		}
	}

	if _, err := LoadServiceTrace(filepath.Join("testdata", "nope.json")); err == nil {
		t.Error("missing file: want error")
	}
	empty := filepath.Join(t.TempDir(), "empty.json")
	if err := os.WriteFile(empty, []byte(`{"traceEvents":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadServiceTrace(empty); err == nil || !strings.Contains(err.Error(), "no span events") {
		t.Errorf("empty trace: got %v, want no-span error", err)
	}
}

// TestCriticalPath pins the walk: root -> run -> write (the latest-
// ending child at each level), and the smaller-ID tie break.
func TestCriticalPath(t *testing.T) {
	path := CriticalPath(fixtureSpans(t))
	var names []string
	for _, s := range path {
		names = append(names, s.Name)
	}
	if got, want := strings.Join(names, " > "), "job > run > write"; got != want {
		t.Errorf("critical path = %q, want %q", got, want)
	}

	tie := []TraceSpan{
		{ID: 1, Parent: 0, Name: "root", DurUS: 100},
		{ID: 2, Parent: 1, Name: "second", StartUS: 0, DurUS: 50},
		{ID: 3, Parent: 1, Name: "third", StartUS: 10, DurUS: 40},
	}
	p := CriticalPath(tie)
	if len(p) != 2 || p[1].Name != "second" {
		t.Errorf("equal end times must break to the smaller span ID, got %+v", p)
	}
	if CriticalPath(nil) != nil {
		t.Error("no spans: want nil path")
	}
}

func TestAnalyzeTraceRules(t *testing.T) {
	rules := func(spans []TraceSpan) []string {
		var out []string
		for _, f := range AnalyzeTraceRules(spans, alert.Defaults()) {
			out = append(out, f.Rule)
		}
		return out
	}
	if got := rules(fixtureSpans(t)); len(got) != 1 || got[0] != "queue-dominated" {
		t.Errorf("fixture rules = %v, want [queue-dominated]", got)
	}
	// Decode and admission both dominate a tiny simulation; one simulate
	// span failed, so incomplete-spans fires too.
	sick := []TraceSpan{
		{ID: 1, Name: "job", DurUS: 100, Status: "ok"},
		{ID: 2, Parent: 1, Name: "spool", DurUS: 30, Status: "ok"},
		{ID: 3, Parent: 1, Name: "cache_lookup", DurUS: 10, Status: "ok"},
		{ID: 4, Parent: 1, Name: "decode", DurUS: 20, Status: "ok"},
		{ID: 5, Parent: 1, Name: "simulate/bumblebee", DurUS: 5, Status: "error"},
	}
	if got := rules(sick); strings.Join(got, ",") != "decode-dominated,admission-dominated,incomplete-spans" {
		t.Errorf("sick rules = %v", got)
	}
	// Without any simulate span the ratio rules stay silent.
	if got := rules(sick[:4]); got != nil {
		t.Errorf("no-simulate rules = %v, want none", got)
	}
}

// TestTraceMarkdownGolden pins the full rendering bytewise; regenerate
// with UPDATE_GOLDEN=1.
func TestTraceMarkdownGolden(t *testing.T) {
	var b strings.Builder
	if err := WriteTraceMarkdownRules(&b, fixtureSpans(t), alert.Defaults()); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	goldenPath := filepath.Join("testdata", "service_trace.golden.md")
	want, err := os.ReadFile(goldenPath)
	if os.IsNotExist(err) || os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", goldenPath)
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("trace markdown differs from golden.\ngot:\n%s\nwant:\n%s", got, want)
	}

	// Determinism: a second render of the same spans is byte-identical.
	var b2 strings.Builder
	if err := WriteTraceMarkdownRules(&b2, fixtureSpans(t), alert.Defaults()); err != nil {
		t.Fatal(err)
	}
	if b2.String() != got {
		t.Error("two renders of the same trace differ")
	}

	if err := WriteTraceMarkdownRules(&b, []TraceSpan{{ID: 2, Parent: 1, Name: "orphan"}}, alert.Defaults()); err == nil {
		t.Error("rootless span list: want error")
	}
}
