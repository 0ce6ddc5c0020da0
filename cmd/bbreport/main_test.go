package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/alert"
)

const benchText = `goos: linux
BenchmarkTable2Workloads/mcf-8 	       1	 123456789 ns/op	         0.0870 ipc:bumblebee
PASS
`

// parseTo runs `bbreport bench -parse` and returns the ledger path.
func parseTo(t *testing.T, dir, name, text string) string {
	t.Helper()
	src := filepath.Join(dir, name+".txt")
	dst := filepath.Join(dir, name+".json")
	if err := os.WriteFile(src, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"bench", "-parse", src, "-o", dst}, &stdout, &stderr); code != 0 {
		t.Fatalf("parse exit %d: %s", code, stderr.String())
	}
	return dst
}

// TestBenchCompareExitCodes is the CI gate's contract: exit 0 when the
// ledgers agree, nonzero when a model metric drifted beyond tolerance.
func TestBenchCompareExitCodes(t *testing.T) {
	dir := t.TempDir()
	base := parseTo(t, dir, "base", benchText)

	var stdout, stderr bytes.Buffer
	if code := run([]string{"bench", "-compare", base, "-against", base}, &stdout, &stderr); code != 0 {
		t.Fatalf("self-compare exit %d: %s", code, stderr.String())
	}

	// Inject a >tolerance model regression (ipc 0.0870 -> 0.0600).
	bad := parseTo(t, dir, "bad", strings.Replace(benchText, "0.0870", "0.0600", 1))
	stdout.Reset()
	stderr.Reset()
	code := run([]string{"bench", "-compare", bad, "-against", base}, &stdout, &stderr)
	if code == 0 {
		t.Fatal("injected model regression exited 0")
	}
	if !strings.Contains(stderr.String(), "REGRESSION") || !strings.Contains(stderr.String(), "ipc:bumblebee") {
		t.Fatalf("regression not reported: %s", stderr.String())
	}

	// A 10x slowdown alone passes by default and gates with -time.
	slow := parseTo(t, dir, "slow", strings.Replace(benchText, "123456789", "1234567890", 1))
	stderr.Reset()
	if code := run([]string{"bench", "-compare", slow, "-against", base}, &stdout, &stderr); code != 0 {
		t.Fatalf("time-only drift gated by default: %s", stderr.String())
	}
	if code := run([]string{"bench", "-compare", slow, "-against", base, "-time"}, &stdout, &stderr); code == 0 {
		t.Fatal("10x slowdown passed with -time")
	}
}

// TestReportAndVerifySubcommands drives report and verify over the
// committed fixture run dir.
func TestReportAndVerifySubcommands(t *testing.T) {
	fixture := filepath.Join("..", "..", "internal", "report", "testdata", "runA")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"verify", fixture}, &stdout, &stderr); code != 0 {
		t.Fatalf("verify exit %d: %s", code, stderr.String())
	}
	stdout.Reset()
	if code := run([]string{"report", fixture}, &stdout, &stderr); code != 0 {
		t.Fatalf("report exit %d: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"# Bumblebee run report", "### Design summary", "| bumblebee |", "### Anomalies"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

// TestReportRulesOneSource: the built-in anomaly thresholds are
// alert.Defaults() and nothing else, so a -rules file holding exactly
// those rules renders the same bytes as no -rules at all, and -rules is
// the only threshold flag.
func TestReportRulesOneSource(t *testing.T) {
	fixtures := filepath.Join("..", "..", "internal", "report", "testdata")
	runA, runB := filepath.Join(fixtures, "runA"), filepath.Join(fixtures, "runB")
	raw, err := json.Marshal(alert.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	rules := filepath.Join(t.TempDir(), "rules.json")
	if err := os.WriteFile(rules, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var builtin, fromFile, stderr bytes.Buffer
	if code := run([]string{"report", runA, runB}, &builtin, &stderr); code != 0 {
		t.Fatalf("report exit %d: %s", code, stderr.String())
	}
	if code := run([]string{"report", "-rules", rules, runA, runB}, &fromFile, &stderr); code != 0 {
		t.Fatalf("report -rules exit %d: %s", code, stderr.String())
	}
	if !strings.Contains(builtin.String(), "p99-slo-breach") {
		t.Fatal("fixture report fires no threshold rule; the comparison proves nothing")
	}
	if !bytes.Equal(builtin.Bytes(), fromFile.Bytes()) {
		t.Error("report with alert.Defaults() as -rules differs from the built-in rules")
	}
	if code := run([]string{"report", "-p99-slo", "1", runA}, &fromFile, &stderr); code != 2 {
		t.Errorf("-p99-slo: exit %d, want 2 (-rules is the only threshold flag)", code)
	}
}

// TestTraceSubcommand renders the committed service-trace fixture and
// checks the headline sections land on stdout and via -o identically.
func TestTraceSubcommand(t *testing.T) {
	fixture := filepath.Join("..", "..", "internal", "report", "testdata", "service_trace.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"trace", fixture}, &stdout, &stderr); code != 0 {
		t.Fatalf("trace exit %d: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"# bbserve request trace", "### Critical path", "| job | job-fixture |", "**queue-dominated**"} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace output missing %q:\n%s", want, out)
		}
	}

	dst := filepath.Join(t.TempDir(), "trace.md")
	if code := run([]string{"trace", "-o", dst, fixture}, &stdout, &stderr); code != 0 {
		t.Fatalf("trace -o exit %d: %s", code, stderr.String())
	}
	written, err := os.ReadFile(dst)
	if err != nil {
		t.Fatal(err)
	}
	if string(written) != out {
		t.Error("-o output differs from stdout output")
	}

	if code := run([]string{"trace", filepath.Join(t.TempDir(), "missing.json")}, &stdout, &stderr); code != 1 {
		t.Error("missing trace file: want exit 1")
	}
}

// TestUsageExitCodes: bad invocations exit 2 without touching anything.
func TestUsageExitCodes(t *testing.T) {
	var stdout, stderr bytes.Buffer
	for _, args := range [][]string{
		{},
		{"nonsense"},
		{"report"},
		{"verify"},
		{"bench"},
		{"bench", "-compare", "x.json"}, // missing -against
		{"trace"},
		{"trace", "a.json", "b.json"}, // exactly one input
	} {
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Fatalf("args %v: want exit 2, got %d", args, code)
		}
	}
}
