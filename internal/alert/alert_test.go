package alert

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestDefaultsValidate(t *testing.T) {
	rs := Defaults()
	if err := rs.Validate(); err != nil {
		t.Fatalf("defaults invalid: %v", err)
	}
	want := []string{
		"hot-table-saturation", "mode-switch-thrashing", "mover-budget-exhausted",
		"p99-slo-breach", "queue-dominated", "decode-dominated",
		"admission-dominated", "incomplete-spans",
	}
	if len(rs.Rules) != len(want) {
		t.Fatalf("defaults have %d rules, want %d", len(rs.Rules), len(want))
	}
	for i, n := range want {
		if rs.Rules[i].Name != n {
			t.Fatalf("rule %d = %s, want %s", i, rs.Rules[i].Name, n)
		}
	}
}

// sweepInput triggers every sweep-scoped default rule exactly once on
// design "pom"/bench "mcf" while leaving "clean"/"xz" quiet.
func sweepInput() Input {
	return Input{
		Runs: []RunSample{
			{Design: "pom", Bench: "mcf", Accesses: 1_000_000, ModeSwitches: 900},
			{Design: "clean", Bench: "xz", Accesses: 1_000_000, ModeSwitches: 3},
		},
		Series: []Series{
			{Design: "pom", Bench: "mcf", Epochs: []EpochSample{
				{Access: 100, HotEntries: 64, MoverStarted: 5, MoverSkipped: 0, HasState: true},
				{Access: 200, HotEntries: 64, MoverStarted: 6, MoverSkipped: 2, HasState: true},
				{Access: 300, HotEntries: 64, MoverStarted: 7, MoverSkipped: 9, HasState: true},
			}},
			{Design: "clean", Bench: "xz", Epochs: []EpochSample{
				{Access: 100, HotEntries: 1, MoverStarted: 1, HasState: true},
				{Access: 200, HotEntries: 2, MoverStarted: 2, HasState: true},
				{Access: 300, HotEntries: 3, MoverStarted: 3, HasState: true},
			}},
		},
		Latency: []LatencySample{
			{Design: "pom", Bench: "mcf", Tier: "dram", Count: 500, P99: 8192, Max: 9000},
			{Design: "clean", Bench: "xz", Tier: "hbm", Count: 500, P99: 64, Max: 100},
		},
	}
}

func TestEvaluateSweepRules(t *testing.T) {
	got := Evaluate(sweepInput(), Defaults())
	wantRules := []string{
		"hot-table-saturation", "mode-switch-thrashing",
		"mover-budget-exhausted", "p99-slo-breach",
	}
	if len(got) != len(wantRules) {
		t.Fatalf("got %d alerts %+v, want %d", len(got), got, len(wantRules))
	}
	for i, a := range got {
		if a.Rule != wantRules[i] {
			t.Errorf("alert %d rule = %s, want %s", i, a.Rule, wantRules[i])
		}
		if a.Design != "pom" || a.Bench != "mcf" {
			t.Errorf("alert %d fired on %s/%s, want pom/mcf", i, a.Design, a.Bench)
		}
	}
	if got[3].Severity != SevCritical {
		t.Errorf("p99 severity = %s, want critical", got[3].Severity)
	}
	if want := "dram p99 8192 cycles > SLO 5000 (count 500, max 9000)"; got[3].Detail != want {
		t.Errorf("p99 detail = %q, want %q", got[3].Detail, want)
	}
}

func TestEvaluateTraceRules(t *testing.T) {
	in := Input{Spans: []Span{
		{Name: "simulate/bumblebee", DurUS: 10, Status: "ok"},
		{Name: "queue_wait", DurUS: 50, Status: "ok"},
		{Name: "decode/bumblebee", DurUS: 30, Status: "ok"},
		{Name: "spool", DurUS: 7, Status: "ok"},
		{Name: "cache_lookup", DurUS: 8, Status: "aborted"},
	}}
	got := Evaluate(in, Defaults())
	wantRules := []string{"queue-dominated", "decode-dominated", "admission-dominated", "incomplete-spans"}
	if len(got) != len(wantRules) {
		t.Fatalf("got %d alerts %+v, want %d", len(got), got, len(wantRules))
	}
	for i, a := range got {
		if a.Rule != wantRules[i] {
			t.Errorf("alert %d = %s, want %s", i, a.Rule, wantRules[i])
		}
	}
	if want := "queue wait 50.000 µs exceeds simulate 10.000 µs — worker fleet undersized for offered load"; got[0].Detail != want {
		t.Errorf("queue detail = %q, want %q", got[0].Detail, want)
	}
	if want := "1 of 5 spans ended aborted or in error"; got[3].Detail != want {
		t.Errorf("bad-spans detail = %q, want %q", got[3].Detail, want)
	}
}

func TestWindowRestrictsSeries(t *testing.T) {
	// The full series plateaus at max for 3/4 epochs, but the trailing
	// 2-epoch window sees max only once — a windowed rule stays quiet.
	s := []Series{{Design: "d", Bench: "b", Epochs: []EpochSample{
		{Access: 1, HotEntries: 9, HasState: true},
		{Access: 2, HotEntries: 9, HasState: true},
		{Access: 3, HotEntries: 9, HasState: true},
		{Access: 4, HotEntries: 4, HasState: true},
	}}}
	whole := RuleSet{Rules: []Rule{{Name: "p", Metric: MetricHotPlateauShare, Threshold: 0.5}}}
	if got := Evaluate(Input{Series: s}, whole); len(got) != 1 {
		t.Fatalf("unwindowed rule fired %d times, want 1", len(got))
	}
	tail := RuleSet{Rules: []Rule{{Name: "p", Metric: MetricHotPlateauShare, Threshold: 0.5, Window: 2}}}
	if got := Evaluate(Input{Series: s}, tail); len(got) != 0 {
		t.Fatalf("windowed rule fired %d times, want 0: %+v", len(got), got)
	}
}

func TestLoadRules(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rules.json")
	body := `{"rules":[{"name":"slo","metric":"p99_cycles","threshold":100,"severity":"critical"}]}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	rs, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rules) != 1 || rs.Rules[0].Name != "slo" || rs.Rules[0].Threshold != 100 {
		t.Fatalf("loaded %+v", rs)
	}
	if rs, err := Load(""); err != nil || !reflect.DeepEqual(rs, Defaults()) {
		t.Fatalf("empty path: rs=%+v err=%v, want defaults", rs, err)
	}
	for name, bad := range map[string]string{
		"unknown metric": `{"rules":[{"name":"x","metric":"nope","threshold":1}]}`,
		"bad severity":   `{"rules":[{"name":"x","metric":"p99_cycles","severity":"loud"}]}`,
		"dup name":       `{"rules":[{"name":"x","metric":"p99_cycles"},{"name":"x","metric":"bad_spans"}]}`,
		"neg window":     `{"rules":[{"name":"x","metric":"p99_cycles","window":-1}]}`,
		"unknown field":  `{"rules":[{"name":"x","metric":"p99_cycles","treshold":1}]}`,
		"empty":          `{"rules":[]}`,
	} {
		if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(path); err == nil {
			t.Errorf("%s: Load accepted %s", name, bad)
		}
	}
}

func TestWriteJSONDeterministic(t *testing.T) {
	alerts := Evaluate(sweepInput(), Defaults())
	var a, b bytes.Buffer
	if err := WriteJSON(&a, Defaults(), alerts); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&b, Defaults(), alerts); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("WriteJSON not deterministic")
	}
	if !strings.HasSuffix(a.String(), "\n") {
		t.Fatal("missing trailing newline")
	}
	var rep Report
	if err := json.Unmarshal(a.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Alerts) != len(alerts) || len(rep.Rules) != len(Defaults().Rules) {
		t.Fatalf("round-trip lost data: %+v", rep)
	}
	// Empty alert lists must still render as [] for byte-stable diffs.
	var empty bytes.Buffer
	if err := WriteJSON(&empty, RuleSet{}, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(empty.String(), `"alerts": []`) {
		t.Fatalf("nil alerts rendered as %s", empty.String())
	}
}

// TestMonitorMatchesEvaluate is the live-vs-post-hoc contract at unit
// scale: feeding a monitor epoch by epoch, then Done, leaves exactly
// the alert set a single post-hoc Evaluate produces.
func TestMonitorMatchesEvaluate(t *testing.T) {
	in := sweepInput()
	m := NewMonitor(Defaults())
	var transitions []Alert
	m.OnAlert = func(a Alert) { transitions = append(transitions, a) }
	for i, run := range in.Runs {
		cm := m.StartCell(run.Design, run.Bench)
		for _, ep := range in.Series[i].Epochs {
			cm.ObserveEpoch(ep)
		}
		cm.Done(run, []LatencySample{in.Latency[i]})
	}
	live := m.Firing()
	posthoc := Evaluate(in, Defaults())
	Sort(posthoc)
	if !reflect.DeepEqual(live, posthoc) {
		t.Fatalf("live firing set:\n%+v\npost-hoc:\n%+v", live, posthoc)
	}
	if len(transitions) == 0 || m.Total() == 0 {
		t.Fatal("no firing transitions observed")
	}
	gs := m.GaugeSamples()
	if len(gs) != len(live) {
		t.Fatalf("gauge samples %+v, want one per alert", gs)
	}
	for _, g := range gs {
		if g.Value != 1 {
			t.Fatalf("gauge %+v value != 1", g)
		}
	}
}

// TestMonitorResolves checks that a mid-run firing that stops holding
// leaves the firing set (the plateau breaks when occupancy rises).
func TestMonitorResolves(t *testing.T) {
	rs := RuleSet{Rules: []Rule{{Name: "p", Metric: MetricHotPlateauShare, Threshold: 0.5}}}
	m := NewMonitor(rs)
	cm := m.StartCell("d", "b")
	cm.ObserveEpoch(EpochSample{Access: 1, HotEntries: 5, HasState: true})
	cm.ObserveEpoch(EpochSample{Access: 2, HotEntries: 5, HasState: true})
	if len(m.Firing()) != 1 {
		t.Fatalf("plateau not firing: %+v", m.Firing())
	}
	// Occupancy keeps rising: the plateau share collapses below 50%.
	cm.ObserveEpoch(EpochSample{Access: 3, HotEntries: 6, HasState: true})
	cm.ObserveEpoch(EpochSample{Access: 4, HotEntries: 7, HasState: true})
	cm.ObserveEpoch(EpochSample{Access: 5, HotEntries: 8, HasState: true})
	if got := m.Firing(); len(got) != 0 {
		t.Fatalf("plateau still firing after resolve: %+v", got)
	}
	if m.Total() != 1 {
		t.Fatalf("total = %d, want 1 (resolves do not count)", m.Total())
	}
}

func TestNilMonitorSafe(t *testing.T) {
	var m *Monitor
	cm := m.StartCell("d", "b")
	if cm != nil {
		t.Fatal("nil monitor returned non-nil cell")
	}
	cm.ObserveEpoch(EpochSample{Access: 1})
	cm.Done(RunSample{}, nil)
	if m.Firing() != nil || m.Total() != 0 || m.GaugeSamples() != nil {
		t.Fatal("nil monitor leaked state")
	}
}

// BenchmarkAlertDisabled measures the disabled (nil CellMon) epoch
// path — the cost every telemetry epoch pays when no rules are
// attached. The overhead guard pins it below 2 ns with 0 allocs.
func BenchmarkAlertDisabled(b *testing.B) {
	var cm *CellMon
	ep := EpochSample{Access: 1, ServedHBM: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cm.ObserveEpoch(ep)
	}
}
