package report

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/alert"
)

// The fixture run directories under testdata were produced by the real
// pipeline:
//
//	bbrepro -experiment fig8 -scale 1024 -accesses 20000 -telemetry-epoch 5000 -csv testdata/runA
//	bbrepro -experiment fig8 -scale 1024 -accesses 30000 -telemetry-epoch 5000 -csv testdata/runB
//
// Regenerate them (and the golden report) with:
//
//	go run ./cmd/bbrepro ... (commands above)
//	UPDATE_GOLDEN=1 go test ./internal/report -run TestReportGolden

func loadFixture(t *testing.T, name string) *Run {
	t.Helper()
	r, err := LoadRun(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestLoadRunFixture(t *testing.T) {
	r := loadFixture(t, "runA")
	if r.Manifest.Experiment != "fig8" || r.Manifest.Accesses != 20000 {
		t.Fatalf("manifest: %+v", r.Manifest)
	}
	if r.Session == nil {
		t.Fatal("session.json not loaded")
	}
	if len(r.Runs) == 0 || len(r.Timeline) == 0 || len(r.Latency) == 0 {
		t.Fatalf("CSVs not loaded: runs=%d timeline=%d latency=%d",
			len(r.Runs), len(r.Timeline), len(r.Latency))
	}
	if errs := r.Manifest.Verify(r.Dir); len(errs) != 0 {
		t.Fatalf("fixture fails its own manifest: %v", errs)
	}
}

// TestReportGolden is the end-to-end check: the joined two-run Markdown
// must be byte-identical to the committed golden. Because the fixtures
// were produced by deterministic sweeps, this also pins the whole
// CSV->report pipeline.
func TestReportGolden(t *testing.T) {
	runs := []*Run{loadFixture(t, "runA"), loadFixture(t, "runB")}
	var b bytes.Buffer
	if err := WriteMarkdown(&b, runs, Options{}); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "report.golden.md")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to generate)", err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		t.Fatalf("report drifted from golden (UPDATE_GOLDEN=1 regenerates)\ngot:\n%s", b.String())
	}
}

// TestReportDeterministic renders the same runs twice and expects
// identical bytes — map iteration anywhere in the pipeline would flake
// this.
func TestReportDeterministic(t *testing.T) {
	runs := []*Run{loadFixture(t, "runA"), loadFixture(t, "runB")}
	var a, b bytes.Buffer
	if err := WriteMarkdown(&a, runs, Options{}); err != nil {
		t.Fatal(err)
	}
	if err := WriteMarkdown(&b, runs, Options{}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two renders of the same runs differ")
	}
}

// TestReportSessionOptIn: session facts appear only behind the flag, so
// default reports stay comparable across invocations.
func TestReportSessionOptIn(t *testing.T) {
	runs := []*Run{loadFixture(t, "runA")}
	var off, on bytes.Buffer
	if err := WriteMarkdown(&off, runs, Options{}); err != nil {
		t.Fatal(err)
	}
	if err := WriteMarkdown(&on, runs, Options{Session: true}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(off.String(), "| session |") {
		t.Fatal("session row leaked into default report")
	}
	if !strings.Contains(on.String(), "| session |") {
		t.Fatal("session row missing with Session: true")
	}
}

// TestAnomalyRules drives each rule over hand-built rows so the
// thresholds gate exactly where documented.
func TestAnomalyRules(t *testing.T) {
	run := &Run{
		Runs: []RunRow{
			// 1000 switches in 100k accesses = 10000/1M: thrashing.
			{Design: "hybrid2", Bench: "mcf", ServedHBM: 90_000, ServedDRAM: 10_000, ModeSwitches: 1000},
			// 10/1M: quiet.
			{Design: "bumblebee", Bench: "mcf", ServedHBM: 90_000, ServedDRAM: 10_000, ModeSwitches: 1},
		},
		Timeline: []TimelineRow{
			// Hot table pinned at 64 every epoch; mover skipped >= started.
			{Design: "bumblebee", Bench: "mcf", Access: 1000, HotHBM: 64, MoverStarted: 5, MoverSkipped: 2, HasState: true},
			{Design: "bumblebee", Bench: "mcf", Access: 2000, HotHBM: 64, MoverStarted: 6, MoverSkipped: 9, HasState: true},
			// Healthy series: occupancy still growing, mover keeping up.
			{Design: "bumblebee", Bench: "xz", Access: 1000, HotHBM: 10, MoverStarted: 5, MoverSkipped: 0, HasState: true},
			{Design: "bumblebee", Bench: "xz", Access: 2000, HotHBM: 20, MoverStarted: 9, MoverSkipped: 1, HasState: true},
			// Stateless design: never analyzed.
			{Design: "alloy", Bench: "mcf", Access: 1000},
		},
		Latency: []LatencyRow{
			{Design: "unison", Bench: "mcf", Tier: "dram", Count: 100, P99: 7322, Max: 7322},
			{Design: "bumblebee", Bench: "mcf", Tier: "chbm", Count: 100, P99: 1915, Max: 1915},
		},
	}
	flags := AnalyzeRules(run, alert.Defaults())
	got := map[string]int{}
	for _, f := range flags {
		got[f.Rule]++
	}
	want := map[string]int{
		"mode-switch-thrashing":  1,
		"hot-table-saturation":   1,
		"mover-budget-exhausted": 1,
		"p99-slo-breach":         1,
	}
	for rule, n := range want {
		if got[rule] != n {
			t.Errorf("rule %s: want %d flags, got %d (all: %+v)", rule, n, got[rule], flags)
		}
	}
	if len(flags) != 4 {
		t.Errorf("want 4 flags total, got %d: %+v", len(flags), flags)
	}
	// The xz series must not trigger: growing occupancy, mover ahead.
	for _, f := range flags {
		if f.Bench == "xz" {
			t.Errorf("healthy series flagged: %+v", f)
		}
	}
}
