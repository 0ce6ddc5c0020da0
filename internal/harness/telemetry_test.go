package harness

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/hmm"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// telemetrySweep runs a small (design x benchmark) matrix with telemetry
// enabled and returns the flattened results in matrix order — the same
// shape Fig8 produces, small enough for a unit test.
func telemetrySweep(parallel int) ([]RunResult, error) {
	h := &Harness{Scale: 1024, Accesses: 12000, Parallel: parallel,
		TelemetryEpoch: 500, TraceDepth: 256}
	rows, err := h.Matrix(h.System(), []string{"bumblebee", "hybrid2", "no-hbm"}, trace.Names()[:3])
	if err != nil {
		return nil, err
	}
	var flat []RunResult
	for _, r := range rows {
		flat = append(flat, r...)
	}
	return flat, nil
}

// The telemetry determinism contract: timeline CSV, latency CSV, and the
// Chrome trace export are all byte-identical at -parallel 1 and 8, because
// each cell owns its probe and results assemble in matrix order.
func TestTelemetryDeterministicAcrossParallelism(t *testing.T) {
	type export struct{ timeline, latency, trace []byte }
	var got [2]export
	for i, parallel := range []int{1, 8} {
		runs, err := telemetrySweep(parallel)
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		var tl, lat, tr bytes.Buffer
		if err := WriteTimelineCSV(&tl, runs); err != nil {
			t.Fatal(err)
		}
		if err := WriteLatencyCSV(&lat, runs); err != nil {
			t.Fatal(err)
		}
		if err := WriteChromeTrace(&tr, runs); err != nil {
			t.Fatal(err)
		}
		got[i] = export{tl.Bytes(), lat.Bytes(), tr.Bytes()}
	}
	if !bytes.Equal(got[0].timeline, got[1].timeline) {
		t.Error("runs_timeline.csv differs between -parallel 1 and -parallel 8")
	}
	if !bytes.Equal(got[0].latency, got[1].latency) {
		t.Error("runs_latency.csv differs between -parallel 1 and -parallel 8")
	}
	if !bytes.Equal(got[0].trace, got[1].trace) {
		t.Error("Chrome trace differs between -parallel 1 and -parallel 8")
	}
}

// One sweep, checked for substance: every run carries telemetry, Bumblebee
// reports its live state while stateless designs leave those columns empty,
// latency histograms saw every LLC miss, and the trace parses as JSON.
func TestTelemetryContent(t *testing.T) {
	runs, err := telemetrySweep(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		if r.Telemetry == nil {
			t.Fatalf("%s/%s: no telemetry despite TelemetryEpoch > 0", r.Design, r.Bench)
		}
		if len(r.Telemetry.Timeline) == 0 {
			t.Errorf("%s/%s: empty timeline", r.Design, r.Bench)
		}
		var latCount uint64
		for tier := telemetry.Tier(0); tier < telemetry.NumTiers; tier++ {
			latCount += r.Telemetry.Lat[tier].Count
		}
		if latCount == 0 {
			t.Errorf("%s/%s: latency histograms empty", r.Design, r.Bench)
		}
		if latCount != uint64(r.CPU.LLCMisses) {
			t.Errorf("%s/%s: observed %d accesses, CPU reports %d LLC misses",
				r.Design, r.Bench, latCount, r.CPU.LLCMisses)
		}
		wantState := r.Design == "bumblebee"
		for _, pt := range r.Telemetry.Timeline {
			if pt.HasState != wantState {
				t.Errorf("%s/%s: HasState = %v, want %v", r.Design, r.Bench, pt.HasState, wantState)
				break
			}
		}
	}
	// The acceptance view: Bumblebee's cHBM:mHBM split must actually move
	// over the run — a flat series would make the timeline pointless.
	var moved bool
	for _, r := range runs {
		if r.Design != "bumblebee" {
			continue
		}
		first := r.Telemetry.Timeline[0].State
		for _, pt := range r.Telemetry.Timeline[1:] {
			if pt.State.CHBMFrames != first.CHBMFrames || pt.State.MHBMFrames != first.MHBMFrames {
				moved = true
			}
		}
	}
	if !moved {
		t.Error("bumblebee cHBM:mHBM split never changed across any run's timeline")
	}
	var tr bytes.Buffer
	if err := WriteChromeTrace(&tr, runs); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(tr.Bytes(), &doc); err != nil {
		t.Fatalf("Chrome trace is not valid JSON: %v", err)
	}
	if _, ok := doc["traceEvents"].([]any); !ok {
		t.Fatal("Chrome trace has no traceEvents array")
	}
}

// telemetryFixture is a fixed, hand-built input for the emitter golden
// tests: one state-reporting run, one stateless run, one run without
// telemetry at all (it must contribute no rows).
func telemetryFixture() []RunResult {
	bb := &RunTelemetry{Epoch: 1000, FreqMHz: 2000}
	bb.Timeline = []TimelinePoint{
		{Access: 1000, Cycle: 4000,
			Counters: hmm.Counters{ServedHBM: 700, ServedDRAM: 300, BlockFills: 50},
			State: telemetry.DesignState{CHBMFrames: 10, MHBMFrames: 2, FreeFrames: 4,
				HotHBMEntries: 3, HotDRAMEntries: 1, MoverStarted: 5, MoverSkipped: 1},
			HasState: true},
		{Access: 2000, Cycle: 9000,
			Counters: hmm.Counters{ServedHBM: 1500, ServedDRAM: 500, BlockFills: 80,
				PageMigrations: 3, ModeSwitches: 1, Evictions: 2},
			State: telemetry.DesignState{CHBMFrames: 8, MHBMFrames: 6, FreeFrames: 1,
				RetiredFrames: 1, HotHBMEntries: 4, HotDRAMEntries: 2,
				MoverStarted: 9, MoverSkipped: 2},
			HasState: true},
	}
	for i := 0; i < 10; i++ {
		bb.Lat[telemetry.TierCHBM].Observe(40)
		bb.Lat[telemetry.TierDRAM].Observe(200)
	}
	bb.Lat[telemetry.TierMHBM].Observe(60)
	bb.Events = []telemetry.Event{
		{Cycle: 4000, Kind: telemetry.EvEpoch, A: 1000},
		{Cycle: 4100, Kind: telemetry.EvMigration, A: 3, B: 7, C: 12},
		{Cycle: 4200, Kind: telemetry.EvModeSwitch, A: 3, B: 7, C: 1},
		{Cycle: 9000, Kind: telemetry.EvEpoch, A: 2000},
	}
	bb.EventsTotal = 4

	nh := &RunTelemetry{Epoch: 1000, FreqMHz: 2000}
	nh.Timeline = []TimelinePoint{
		{Access: 1000, Cycle: 5000, Counters: hmm.Counters{ServedDRAM: 1000}},
	}
	for i := 0; i < 5; i++ {
		nh.Lat[telemetry.TierDRAM].Observe(250)
	}

	return []RunResult{
		{Design: "bumblebee", Bench: "mcf", Telemetry: bb},
		{Design: "no-hbm", Bench: "mcf", Telemetry: nh},
		{Design: "alloy", Bench: "mcf"},
	}
}

func TestWriteTimelineCSVGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTimelineCSV(&buf, telemetryFixture()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "timeline_emitter.golden.csv", buf.Bytes())
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 { // header + 2 bumblebee epochs + 1 no-hbm epoch
		t.Fatalf("lines = %d, want 4:\n%s", len(lines), buf.String())
	}
	if lines[0] != strings.Join(timelineHeader, ",") {
		t.Errorf("header = %q", lines[0])
	}
	// The stateless run's state columns are empty, not zero.
	if !strings.HasSuffix(lines[3], ",,,,,,,,,") {
		t.Errorf("no-hbm state columns not empty: %q", lines[3])
	}
	// chbm_ratio at epoch 2: 8 cHBM of 14 occupied.
	if !strings.Contains(lines[2], "0.571429") {
		t.Errorf("epoch-2 chbm_ratio missing: %q", lines[2])
	}
}

func TestWriteLatencyCSVGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteLatencyCSV(&buf, telemetryFixture()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "latency_emitter.golden.csv", buf.Bytes())
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 7 { // header + 3 tiers x 2 telemetry runs
		t.Fatalf("lines = %d, want 7:\n%s", len(lines), buf.String())
	}
	// All 40-cycle samples: every quantile is the bucket bound clamped to max.
	if lines[1] != "bumblebee,mcf,chbm,10,40.000,40,40,40,40" {
		t.Errorf("chbm row = %q", lines[1])
	}
}

func TestWriteChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, telemetryFixture()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "chrome_trace.golden.json", buf.Bytes())
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("golden trace is not valid JSON: %v", err)
	}
	// Counter tracks exist only for the state-reporting run.
	if got := strings.Count(buf.String(), `"ph":"C"`); got != 2 {
		t.Errorf("counter events = %d, want 2", got)
	}
	if got := strings.Count(buf.String(), `"ph":"M"`); got != 2 {
		t.Errorf("process metadata events = %d, want 2 (telemetry-less run excluded)", got)
	}
}
