package harness

import (
	"io"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/alert"
	"repro/internal/ckpt"
	"repro/internal/config"
	"repro/internal/report"
	"repro/internal/trace"
)

// The live-vs-post-hoc contract end to end: running a telemetry-enabled
// sweep with a live monitor attached, writing the run directory, and
// re-analyzing that directory with bbreport's loader must all produce
// the same alert set — the engine is one function, so the three views
// can only diverge if a lowering (harness feed vs CSV round-trip)
// disagrees, which is exactly what this test pins.

var alertDesigns = []config.Design{config.DesignBumblebee, config.DesignAlloy}

func alertHarness() *Harness {
	return &Harness{Scale: 1024, Accesses: 30000, Parallel: 4, TelemetryEpoch: 5000}
}

// alertRules lowers the p99 SLO far enough that real runs breach it,
// so the equality below is proven over a non-empty alert set.
func alertRules() alert.RuleSet {
	rs := alert.Defaults()
	for i := range rs.Rules {
		if rs.Rules[i].Metric == alert.MetricP99Cycles {
			rs.Rules[i].Threshold = 10
		}
	}
	return rs
}

func openAlertStream() (trace.Stream, error) {
	p := trace.TableII()[0].Scale(1024).Profile
	p.Seed = 42
	return trace.NewSynthetic(p)
}

// alertKeys flattens alerts into comparable strings.
func alertKeys(alerts []alert.Alert) []string {
	out := make([]string, len(alerts))
	for i, a := range alerts {
		out[i] = a.Rule + "|" + a.Design + "|" + a.Bench + "|" + a.Detail
	}
	return out
}

func TestLiveAlertsMatchPostHoc(t *testing.T) {
	rules := alertRules()
	mon := alert.NewMonitor(rules)
	h := alertHarness()
	h.Alerts = mon
	runs, err := h.ReplaySweep(alertDesigns, "fixture", openAlertStream)
	if err != nil {
		t.Fatal(err)
	}

	// View 1: the live monitor's firing set at sweep completion.
	live := alertKeys(mon.Firing())
	if len(live) == 0 {
		t.Fatal("no alerts fired; the fixture rules should breach the lowered p99 SLO")
	}

	// View 2: pure evaluation over the in-memory results (what the
	// experiments write to alerts.json).
	evaluated := alert.Evaluate(alertInput(runs), rules)
	ev := alertKeys(evaluated)

	// View 3: bbreport's analyzer over the written run directory.
	dir := t.TempDir()
	rd, err := report.NewRunDir(dir, report.New("harness-test", "replay", 1024, 30000, 5000))
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range []struct {
		name, kind string
		fn         func(io.Writer) error
	}{
		{"runs.csv", "runs", func(w io.Writer) error { return WriteRunsCSV(w, runs) }},
		{"runs_timeline.csv", "timeline", func(w io.Writer) error { return WriteTimelineCSV(w, runs) }},
		{"runs_latency.csv", "latency", func(w io.Writer) error { return WriteLatencyCSV(w, runs) }},
		{"alerts.json", "alerts", func(w io.Writer) error { return alert.WriteJSON(w, rules, evaluated) }},
	} {
		if err := rd.Write(o.name, o.kind, o.fn); err != nil {
			t.Fatal(err)
		}
	}
	if err := rd.Close(nil); err != nil {
		t.Fatal(err)
	}
	run, err := report.LoadRun(dir)
	if err != nil {
		t.Fatal(err)
	}
	posthoc := alertKeys(report.AnalyzeRules(run, rules))

	// All three views sort by (rule, design, bench, detail) under the
	// default-ordered rule set, so they must be elementwise identical.
	if !reflect.DeepEqual(live, ev) {
		t.Errorf("live firing set diverges from in-memory evaluation:\nlive: %v\neval: %v", live, ev)
	}
	if !reflect.DeepEqual(ev, posthoc) {
		t.Errorf("in-memory evaluation diverges from post-hoc report analysis:\neval: %v\npost: %v", ev, posthoc)
	}

	// And alerts.json round-trips to the same set bbreport computes.
	rep, err := alert.ReadJSONFile(filepath.Join(dir, "alerts.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(alertKeys(rep.Alerts), posthoc) {
		t.Errorf("alerts.json diverges from bbreport analysis:\njson: %v\npost: %v", alertKeys(rep.Alerts), posthoc)
	}
}

// TestAlertsSurviveResume pins the checkpoint path: cells served from
// the journal never simulate, so the monitor replays their recorded
// results — a resumed sweep's firing set must equal an uninterrupted
// sweep's.
func TestAlertsSurviveResume(t *testing.T) {
	rules := alertRules()
	meta := ckpt.Meta{Tool: "harness-test", Experiment: "replay", Scale: 1024, Accesses: 30000, TelemetryEpoch: 5000}
	dir := t.TempDir()

	j, err := ckpt.Create(dir, meta)
	if err != nil {
		t.Fatal(err)
	}
	mon1 := alert.NewMonitor(rules)
	h1 := alertHarness()
	h1.Journal = j
	h1.Alerts = mon1
	if _, err := h1.ReplaySweep(alertDesigns, "fixture", openAlertStream); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	want := mon1.Firing()
	if len(want) == 0 {
		t.Fatal("no alerts fired in the journaled run")
	}

	// Second invocation: every cell resumes from the journal; no
	// simulation runs, yet the firing set must come back identical.
	j2, loaded, err := ckpt.Resume(dir, meta)
	if err != nil {
		t.Fatal(err)
	}
	if loaded == nil || len(loaded.Records) == 0 {
		t.Fatal("journal held no records to resume from")
	}
	mon2 := alert.NewMonitor(rules)
	h2 := alertHarness()
	h2.Journal = j2
	h2.Alerts = mon2
	if _, err := h2.ReplaySweep(alertDesigns, "fixture", openAlertStream); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	if j2.Resumed() == 0 {
		t.Fatal("resume served no cells from the journal")
	}
	if !reflect.DeepEqual(alertKeys(mon2.Firing()), alertKeys(want)) {
		t.Errorf("resumed firing set differs:\nresumed: %v\noriginal: %v",
			alertKeys(mon2.Firing()), alertKeys(want))
	}
	if mon2.Total() != mon1.Total() {
		t.Errorf("resumed transition total = %d, want %d", mon2.Total(), mon1.Total())
	}
}

// Every resumed cell reaches the live monitor, whatever its figure
// keeps: Overfetch reduces its runs to byte totals, but its journal
// holds whole runs, so a resume from the complete journal fires exactly
// what the uninterrupted run fired.
func TestOverfetchAlertsSurviveResume(t *testing.T) {
	meta := ckpt.Meta{Tool: "harness-test", Experiment: "overfetch", Scale: 1024, Accesses: 6000, TelemetryEpoch: 2000}
	dir := t.TempDir()
	run := func(j *ckpt.Journal) *alert.Monitor {
		t.Helper()
		h := resumeHarness()
		h.Journal = j
		h.Alerts = alert.NewMonitor(alertRules())
		if _, err := h.Overfetch(); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		return h.Alerts
	}
	j, err := ckpt.Create(dir, meta)
	if err != nil {
		t.Fatal(err)
	}
	want := run(j)
	if len(want.Firing()) == 0 {
		t.Fatal("no alerts fired in the uninterrupted run")
	}
	j2, _, err := ckpt.Resume(dir, meta)
	if err != nil {
		t.Fatal(err)
	}
	got := run(j2)
	if n := 2 * len(resumeHarness().Benchmarks()); j2.Resumed() != n {
		t.Fatalf("resumed %d cells, want all %d", j2.Resumed(), n)
	}
	if !reflect.DeepEqual(alertKeys(got.Firing()), alertKeys(want.Firing())) {
		t.Errorf("resumed firing set differs:\nresumed: %v\noriginal: %v",
			alertKeys(got.Firing()), alertKeys(want.Firing()))
	}
	if got.Total() != want.Total() {
		t.Errorf("resumed transition total = %d, want %d", got.Total(), want.Total())
	}
}
