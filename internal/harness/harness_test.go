package harness

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/metrics"
	"repro/internal/runner"
	"repro/internal/trace"
)

// tiny returns a harness small and short enough for unit tests.
func tiny() *Harness {
	return &Harness{Scale: 512, Accesses: 40000}
}

// runDesign builds design on the harness's system and runs b on it.
func runDesign(h *Harness, design config.Design, b trace.Benchmark) (RunResult, error) {
	sys := h.System()
	mem, err := Build(design, sys)
	if err != nil {
		return RunResult{}, err
	}
	return h.Run(sys, mem, b)
}

func TestSystemScaling(t *testing.T) {
	h := tiny()
	sys := h.System()
	if err := sys.Validate(); err != nil {
		t.Fatalf("scaled system invalid: %v", err)
	}
	if sys.DRAM.CapacityBytes/sys.HBM.CapacityBytes != 10 {
		t.Error("scaling broke the DRAM:HBM ratio")
	}
	full := config.Default()
	if sys.HBM.CapacityBytes != full.HBM.CapacityBytes/512 {
		t.Errorf("HBM not scaled: %d", sys.HBM.CapacityBytes)
	}
	// Scale 1 must return Table I unchanged.
	h1 := &Harness{Scale: 1}
	if h1.System().HBM.CapacityBytes != full.HBM.CapacityBytes {
		t.Error("scale 1 altered the configuration")
	}
}

func TestBenchmarksScaled(t *testing.T) {
	h := tiny()
	bs := h.Benchmarks()
	if len(bs) != 14 {
		t.Fatalf("benchmarks = %d", len(bs))
	}
	for _, b := range bs {
		if b.Profile.FootprintBytes > trace.TableII()[0].Profile.FootprintBytes {
			t.Errorf("%s not scaled", b.Profile.Name)
		}
		if err := b.Profile.Validate(); err != nil {
			t.Errorf("%s: %v", b.Profile.Name, err)
		}
	}
}

func TestBuildAllDesigns(t *testing.T) {
	sys := tiny().System()
	for _, d := range []config.Design{
		config.DesignBumblebee, config.DesignHybrid2, config.DesignChameleon,
		config.DesignBanshee, config.DesignAlloy, config.DesignUnison,
		config.DesignCacheOnly, config.DesignPOMOnly, config.DesignNoHBM,
	} {
		mem, err := Build(d, sys)
		if err != nil {
			t.Fatalf("Build(%s): %v", d, err)
		}
		if mem.Name() == "" {
			t.Errorf("%s has empty name", d)
		}
		if mem.Devices() == nil {
			t.Errorf("%s has no devices", d)
		}
	}
	if _, err := Build("nonesuch", sys); err == nil {
		t.Error("unknown design accepted")
	}
}

func TestRunProducesSaneResult(t *testing.T) {
	h := tiny()
	b, err := trace.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	r, err := runDesign(h, config.DesignBumblebee, b.Scale(h.Scale))
	if err != nil {
		t.Fatal(err)
	}
	if r.CPU.IPC() <= 0 || r.CPU.Instructions == 0 {
		t.Errorf("degenerate result: %+v", r.CPU)
	}
	if r.HBMBytes == 0 && r.DRAMBytes == 0 {
		t.Error("no memory traffic recorded")
	}
	if r.Energy.TotalPJ() <= 0 {
		t.Error("no energy recorded")
	}
}

func TestFig7VariantsComplete(t *testing.T) {
	vs := Fig7Variants()
	if len(vs) != 10 {
		t.Fatalf("variants = %d, want 10 (paper bars)", len(vs))
	}
	want := []string{"C-Only", "M-Only", "25%-C", "50%-C", "No-Multi",
		"Meta-H", "Alloc-D", "Alloc-H", "No-HMF", "Bumblebee"}
	for i, v := range vs {
		if v.Label != want[i] {
			t.Errorf("variant %d = %q, want %q", i, v.Label, want[i])
		}
		sys := tiny().System()
		v.Apply(&sys)
		if err := sys.Validate(); err != nil {
			t.Errorf("%s produces invalid system: %v", v.Label, err)
		}
	}
}

func TestFig6Configs(t *testing.T) {
	cs := Fig6Configs()
	if len(cs) != 9 {
		t.Fatalf("configs = %d, want 9", len(cs))
	}
	if cs[0].Label() != "1-64" || cs[8].Label() != "4-128" {
		t.Errorf("labels wrong: %s .. %s", cs[0].Label(), cs[8].Label())
	}
}

func TestFig1SmallRun(t *testing.T) {
	h := tiny()
	h.Accesses = 20000
	res, err := h.Fig1()
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(Fig1Benchmarks)*len(Fig1LineSizes) {
		t.Fatalf("results = %d", len(res))
	}
	for _, r := range res {
		sum := 0.0
		for _, s := range r.Shares {
			sum += s
		}
		if sum < 0.99 || sum > 1.01 {
			t.Errorf("%s/%d shares sum to %f", r.Bench, r.LineBytes, sum)
		}
	}
	txt := Fig1Table(res)
	for _, want := range []string{"mcf", "wrf", "xz", "64KB", "N<5"} {
		if !strings.Contains(txt, want) {
			t.Errorf("fig1 table missing %q", want)
		}
	}
}

func TestFig1LocalityShape(t *testing.T) {
	// The paper's Figure 1 point: for wrf (weak spatial), large lines
	// have a smaller high-reuse share than small lines.
	h := &Harness{Scale: 256, Accesses: 150000}
	res, err := h.Fig1()
	if err != nil {
		t.Fatal(err)
	}
	var wrfSmall, wrfLarge []float64
	for _, r := range res {
		if r.Bench != "wrf" {
			continue
		}
		if r.LineBytes == 64 {
			wrfSmall = r.Shares
		}
		if r.LineBytes == 64*1024 {
			wrfLarge = r.Shares
		}
	}
	if wrfSmall == nil || wrfLarge == nil {
		t.Fatal("missing wrf rows")
	}
	// Share of N>=5 (buckets 1..4).
	hot := func(s []float64) float64 { return s[1] + s[2] + s[3] + s[4] }
	if hot(wrfLarge) >= hot(wrfSmall) {
		t.Errorf("wrf: large lines hot share %f >= small lines %f (weak spatial locality not visible)",
			hot(wrfLarge), hot(wrfSmall))
	}
}

func TestTable1Rendering(t *testing.T) {
	txt := tiny().Table1()
	for _, want := range []string{"3600 MHz", "HBM2", "DDR4-3200", "L1D", "DRRIP"} {
		if !strings.Contains(txt, want) {
			t.Errorf("table1 missing %q", want)
		}
	}
}

func TestTable2Measurement(t *testing.T) {
	h := tiny()
	rows, err := h.Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 14 {
		t.Fatalf("rows = %d", len(rows))
	}
	// MPKI ordering must hold between the class extremes.
	var romsMPKI, leelaMPKI float64
	for _, r := range rows {
		if r.Bench == "roms" {
			romsMPKI = r.MeasMPKI
		}
		if r.Bench == "leela" {
			leelaMPKI = r.MeasMPKI
		}
	}
	if romsMPKI <= leelaMPKI {
		t.Errorf("roms MPKI %f <= leela %f", romsMPKI, leelaMPKI)
	}
	txt := Table2Text(rows)
	if !strings.Contains(txt, "roms") || !strings.Contains(txt, "paperMPKI") {
		t.Error("table2 text incomplete")
	}
}

func TestMetadataReport(t *testing.T) {
	txt := MetadataReport()
	for _, want := range []string{"bumblebee", "hybrid2", "334KB"} {
		if !strings.Contains(txt, want) {
			t.Errorf("metadata report missing %q", want)
		}
	}
}

func TestFig8Summary(t *testing.T) {
	// Construct a synthetic Fig8Result and check the summary picks the
	// right best-other design.
	tb := &metrics.Table{Columns: Fig8Groups}
	vals := func(v float64) map[string]float64 {
		return map[string]float64{"High": v, "Medium": v, "Low": v, "All": v}
	}
	tb.Add("hybrid2", vals(1.4))
	tb.Add("alloy", vals(0.9))
	tb.Add("bumblebee", vals(2.0))
	r := &Fig8Result{IPC: tb, HBM: tb, DRAM: tb, Energy: tb}
	s := r.Summary()
	if !strings.Contains(s, "bumblebee") {
		t.Error("summary missing design name")
	}
	if !strings.Contains(s, "hybrid2") {
		t.Error("summary did not find best-other IPC design")
	}
	if !strings.Contains(s, "alloy") {
		t.Error("summary did not find lowest-traffic other design")
	}
}

func TestWriteRunsCSV(t *testing.T) {
	h := tiny()
	b, err := trace.ByName("leela")
	if err != nil {
		t.Fatal(err)
	}
	r, err := runDesign(h, config.DesignBumblebee, b.Scale(h.Scale))
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := WriteRunsCSV(&buf, []RunResult{r}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("csv lines = %d, want header+1", len(lines))
	}
	if !strings.HasPrefix(lines[0], "design,bench,") {
		t.Errorf("csv header wrong: %s", lines[0])
	}
	if !strings.HasPrefix(lines[1], "bumblebee,leela,") {
		t.Errorf("csv row wrong: %s", lines[1])
	}
	nCols := len(strings.Split(lines[0], ","))
	if got := len(strings.Split(lines[1], ",")); got != nCols {
		t.Errorf("row has %d cols, header %d", got, nCols)
	}
}

func TestWriteTableCSV(t *testing.T) {
	tb := &metrics.Table{Columns: []string{"High", "All"}}
	tb.Add("bumblebee", map[string]float64{"High": 2, "All": 1.5})
	var buf strings.Builder
	if err := WriteTableCSV(&buf, tb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "bumblebee,2.000000,1.500000") {
		t.Errorf("table csv wrong:\n%s", buf.String())
	}
}

func TestMALSmall(t *testing.T) {
	h := tiny()
	h.Accesses = 15000
	res, err := h.MAL()
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 14 {
		t.Fatalf("MAL rows = %d", len(res))
	}
	anyPositive := false
	for _, r := range res {
		if r.MALShare < 0 || r.MALShare > 1 {
			t.Errorf("%s: MAL share %f out of range", r.Bench, r.MALShare)
		}
		if r.MALShare > 0 {
			anyPositive = true
		}
	}
	if !anyPositive {
		t.Error("in-HBM metadata never added latency")
	}
	txt := MALTable(res)
	if !strings.Contains(txt, "paper: 2%~26%") {
		t.Error("MAL table missing paper reference")
	}
}

func TestMixSmall(t *testing.T) {
	h := tiny()
	h.Accesses = 40000
	res, err := h.Mix([]string{"mcf", "leela"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(Fig8Designs) {
		t.Fatalf("results = %d", len(res))
	}
	for _, r := range res {
		if len(r.PerCore) != 2 {
			t.Errorf("%s per-core results = %d", r.Design, len(r.PerCore))
		}
		if r.WeightedSpeedup <= 0 {
			t.Errorf("%s weighted speedup = %f", r.Design, r.WeightedSpeedup)
		}
	}
	txt := MixTable([]string{"mcf", "leela"}, res)
	if !strings.Contains(txt, "bumblebee") || !strings.Contains(txt, "weighted") {
		t.Errorf("mix table incomplete:\n%s", txt)
	}
}

// The default mix's table and every per-core result field are pinned.
// Each core runs 100 000 accesses, past the generators' initialization
// sweep (up to 65536 accesses), so the pin covers the seeded part of
// every stream. Regenerate with UPDATE_GOLDEN=1.
func TestMixGolden(t *testing.T) {
	h := &Harness{Scale: 1024, Accesses: 400000, Parallel: 2}
	res, err := h.Mix(nil)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString(MixTable(nil, res))
	for _, r := range res {
		for i, c := range r.PerCore {
			fmt.Fprintf(&b, "%s core %d (%s): %+v\n", r.Design, i, DefaultMix[i], c)
		}
	}
	checkGolden(t, "mix.golden.txt", []byte(b.String()))
}

// Fig6 and Fig7 normalize every row by the no-HBM baseline row, which
// another shard may own, so they refuse a shard the way figfault does.
func TestFig6Fig7RefuseShard(t *testing.T) {
	h := &Harness{Scale: 1024, Accesses: 2000, Shard: runner.Shard{K: 1, N: 2}}
	if _, err := h.Fig6(); err == nil || !strings.Contains(err.Error(), "sharding unsupported") {
		t.Errorf("Fig6 under a shard: err = %v, want a refusal", err)
	}
	if _, err := h.Fig7(); err == nil || !strings.Contains(err.Error(), "sharding unsupported") {
		t.Errorf("Fig7 under a shard: err = %v, want a refusal", err)
	}
}
