package harness

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/trace"
)

// RAS fault-injection coverage: the sweep stays byte-identical at any
// -parallel, retired frames are never allocated again (the graceful-
// degradation invariant), and conservation still balances under faults.

func TestFigFaultDeterministicAcrossParallelism(t *testing.T) {
	designs := []config.Design{config.DesignBanshee, config.DesignBumblebee}
	rates := []float64{0, 50}
	var got [2][]byte
	for i, parallel := range []int{1, 8} {
		res, err := determinismHarness(parallel).FigFaultWith(designs, rates)
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		var buf bytes.Buffer
		if err := WriteFigFaultCSV(&buf, res); err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		got[i] = buf.Bytes()
	}
	if !bytes.Equal(got[0], got[1]) {
		t.Errorf("figfault CSV differs between -parallel 1 and -parallel 8:\n--- serial ---\n%s\n--- parallel ---\n%s",
			got[0], got[1])
	}
}

func TestFigFaultZeroRateIsBaseline(t *testing.T) {
	h := determinismHarness(2)
	res, err := h.FigFaultWith([]config.Design{config.DesignBumblebee}, []float64{0, 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	r0 := res.Rows[0]
	if r0.Rate != 0 || r0.NormIPC != 1 {
		t.Errorf("rate-0 row not self-normalized: %+v", r0)
	}
	if r0.ECCCorrected != 0 || r0.ECCRetried != 0 || r0.FramesRetired != 0 ||
		r0.RetiredServes != 0 || r0.ThrottledAccesses != 0 {
		t.Errorf("rate-0 row has RAS events: %+v", r0)
	}
	r1 := res.Rows[1]
	if r1.FramesRetired == 0 {
		t.Errorf("rate-50 row retired no frames: %+v", r1)
	}
	if r1.ECCCorrected == 0 && r1.ECCRetried == 0 {
		t.Errorf("rate-50 row saw no transient events: %+v", r1)
	}
}

// The graceful-degradation invariant: after a faulted run, no retired
// frame is allocated, mHBM pages were migrated out (counter-verified),
// and the conservation counters still balance.
func TestRetiredFramesNeverAllocated(t *testing.T) {
	h := tiny()
	sys := h.System()
	sys.Faults = FaultsAtRate(500)
	b, err := trace.ByName("mcf") // strong-spatial: populates mHBM pages
	if err != nil {
		t.Fatal(err)
	}
	mem, err := Build(config.DesignBumblebee, sys)
	if err != nil {
		t.Fatal(err)
	}
	r, err := h.Run(sys, mem, b.Scale(h.Scale))
	if err != nil {
		t.Fatal(err)
	}
	bb, ok := mem.(*core.Bumblebee)
	if !ok {
		t.Fatalf("design is %T, want *core.Bumblebee", mem)
	}
	if err := bb.VerifyRetired(); err != nil {
		t.Errorf("retirement invariant violated: %v", err)
	}
	c := r.Counters
	if c.FramesRetired == 0 {
		t.Fatal("no frames retired at rate 500/1M — fault plumbing broken")
	}
	if c.RetireMigrations == 0 {
		t.Error("no mHBM pages migrated out before retirement")
	}
	if got := bb.RetiredFrameCount(); uint64(got) > c.FramesRetired {
		t.Errorf("quarantined %d frames, injector retired only %d", got, c.FramesRetired)
	}
	// Conservation still balances under faults.
	if c.ServedHBM+c.ServedDRAM != c.Requests {
		t.Errorf("served HBM %d + DRAM %d != requests %d", c.ServedHBM, c.ServedDRAM, c.Requests)
	}
	if c.Requests != r.CPU.LLCMisses {
		t.Errorf("requests %d != LLC misses %d", c.Requests, r.CPU.LLCMisses)
	}
}

// Fault-oblivious baselines keep serving from dead frames; the
// RetiredServes counter measures the reliability gap Bumblebee closes.
func TestBaselineServesRetiredFrames(t *testing.T) {
	h := tiny()
	sys := h.System()
	sys.Faults = FaultsAtRate(500)
	b, err := trace.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	mem, err := Build(config.DesignBanshee, sys)
	if err != nil {
		t.Fatal(err)
	}
	r, err := h.Run(sys, mem, b.Scale(h.Scale))
	if err != nil {
		t.Fatal(err)
	}
	c := r.Counters
	if c.FramesRetired == 0 {
		t.Fatal("no frames retired at rate 500/1M")
	}
	if c.RetiredServes == 0 {
		t.Error("fault-oblivious baseline recorded no retired serves")
	}
	if c.RetireMigrations != 0 || c.RetireDrops != 0 {
		t.Errorf("baseline claims retirement handling: migrations %d, drops %d",
			c.RetireMigrations, c.RetireDrops)
	}
	// Conservation holds for baselines under faults too.
	if c.ServedHBM+c.ServedDRAM != c.Requests {
		t.Errorf("served HBM %d + DRAM %d != requests %d", c.ServedHBM, c.ServedDRAM, c.Requests)
	}
}

// The same faulted cell reproduces bit-identically run-to-run.
func TestFaultedRunReproducible(t *testing.T) {
	h := tiny()
	sys := h.System()
	sys.Faults = FaultsAtRate(100)
	b, err := trace.ByName("wrf")
	if err != nil {
		t.Fatal(err)
	}
	run := func() RunResult {
		mem, err := Build(config.DesignBumblebee, sys)
		if err != nil {
			t.Fatal(err)
		}
		r, err := h.Run(sys, mem, b.Scale(h.Scale))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	r1, r2 := run(), run()
	if r1.CPU != r2.CPU || r1.Counters != r2.Counters ||
		r1.HBMBytes != r2.HBMBytes || r1.DRAMBytes != r2.DRAMBytes {
		t.Errorf("repeated faulted cell not bit-identical:\n%+v\nvs\n%+v", r1, r2)
	}
}

func figFaultFixture() *FigFaultResult {
	return &FigFaultResult{Rows: []FigFaultRow{
		{Design: "banshee", Rate: 0, NormIPC: 1},
		{Design: "banshee", Rate: 10, NormIPC: 0.953125,
			ECCCorrected: 120, ECCRetried: 40, FramesRetired: 6, RetiredServes: 900,
			ThrottledAccesses: 5000},
		{Design: "bumblebee", Rate: 0, NormIPC: 1},
		{Design: "bumblebee", Rate: 10, NormIPC: 0.984375,
			ECCCorrected: 115, ECCRetried: 38, FramesRetired: 5,
			ThrottledAccesses: 4800, RetireMigrations: 3, RetireDrops: 2, RetireDeferred: 1},
	}}
}

func TestWriteFigFaultCSVGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFigFaultCSV(&buf, figFaultFixture()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "figfault_emitter.golden.csv", buf.Bytes())
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("lines = %d, want header+4", len(lines))
	}
	if lines[0] != "design,rate,norm_ipc,ecc_corrected,ecc_retried,frames_retired,retired_serves,throttled_accesses,retire_migrations,retire_drops,retire_deferred" {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "banshee,0,1,0,0,0,") {
		t.Errorf("row = %q", lines[1])
	}
}

func TestFigFaultTable(t *testing.T) {
	tb := figFaultFixture().Table()
	if len(tb.Columns) != 2 || tb.Columns[0] != "0" || tb.Columns[1] != "10" {
		t.Fatalf("columns = %v", tb.Columns)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(tb.Rows))
	}
	if tb.Rows[0].Name != "banshee" || tb.Rows[0].Values["10"] != 0.953125 {
		t.Errorf("row 0 = %+v", tb.Rows[0])
	}
}

// figfault runs every (design, rate) cell of a benchmark on one filtered
// stream; fault injection lives below the LLC, so every grouped cell —
// RAS counters and telemetry included — equals its run alone through
// Build and Run.
func TestFigFaultGroupsMatchSoloRuns(t *testing.T) {
	h := &Harness{Scale: 1024, Accesses: 20000, Parallel: 2, TelemetryEpoch: 2000, TraceDepth: 64}
	designs := []config.Design{config.DesignBumblebee, config.DesignHybrid2}
	rates := []float64{0, 10}
	res, err := h.FigFaultWith(designs, rates)
	if err != nil {
		t.Fatal(err)
	}
	bs := h.Benchmarks()
	if len(res.PerRun) != len(designs)*len(rates)*len(bs) {
		t.Fatalf("%d runs, want %d", len(res.PerRun), len(designs)*len(rates)*len(bs))
	}
	var ras uint64
	k := 0
	for _, d := range designs {
		for _, rate := range rates {
			sys := h.System()
			sys.Faults = FaultsAtRate(rate)
			for _, b := range bs {
				mem, err := Build(d, sys)
				if err != nil {
					t.Fatal(err)
				}
				want, err := h.Run(sys, mem, b)
				if err != nil {
					t.Fatal(err)
				}
				got := res.PerRun[k]
				k++
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s@%g/%s: grouped cell differs from its solo run:\n got %+v\nwant %+v",
						d, rate, b.Profile.Name, got.Counters, want.Counters)
				}
				if got.Telemetry == nil || len(got.Telemetry.Timeline) == 0 {
					t.Errorf("%s@%g/%s: no telemetry recorded", d, rate, b.Profile.Name)
				}
				c := got.Counters
				ras += c.ECCCorrected + c.ECCRetried + c.FramesRetired + c.ThrottledAccesses
			}
		}
	}
	if ras == 0 {
		t.Error("no RAS event fired: the comparison never exercised fault injection")
	}
}
