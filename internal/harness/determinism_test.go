package harness

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/config"
	"repro/internal/trace"
)

// The sweep determinism contract: the same sweep produces byte-identical
// CSV output at -parallel 1 and -parallel 8, because every cell derives
// its RNG seed from the cell's identity and results assemble in matrix
// order. These tests run the real Fig 6/7 sweeps at a tiny scale.

func determinismHarness(parallel int) *Harness {
	return &Harness{Scale: 1024, Accesses: 10000, Parallel: parallel}
}

func TestFig6DeterministicAcrossParallelism(t *testing.T) {
	var got [2][]byte
	for i, parallel := range []int{1, 8} {
		res, err := determinismHarness(parallel).Fig6()
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		var buf bytes.Buffer
		if err := WriteFig6CSV(&buf, res); err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		got[i] = buf.Bytes()
	}
	if !bytes.Equal(got[0], got[1]) {
		t.Errorf("fig6 CSV differs between -parallel 1 and -parallel 8:\n--- serial ---\n%s\n--- parallel ---\n%s",
			got[0], got[1])
	}
}

func TestFig7DeterministicAcrossParallelism(t *testing.T) {
	var got [2][]byte
	for i, parallel := range []int{1, 8} {
		h := determinismHarness(parallel)
		h.Accesses = 8000
		res, err := h.Fig7()
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		var buf bytes.Buffer
		if err := WriteFig7CSV(&buf, res); err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		got[i] = buf.Bytes()
	}
	if !bytes.Equal(got[0], got[1]) {
		t.Errorf("fig7 CSV differs between -parallel 1 and -parallel 8:\n--- serial ---\n%s\n--- parallel ---\n%s",
			got[0], got[1])
	}
}

// Golden-file regression tests for the CSV emitters themselves: fixed
// inputs must render to exactly the committed bytes, so format drift is a
// deliberate, reviewed change. Regenerate with -update.

var update = os.Getenv("UPDATE_GOLDEN") != ""

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (set UPDATE_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func fig6Fixture() []Fig6Result {
	return []Fig6Result{
		{Config: Fig6Config{BlockKB: 1, PageKB: 64}, Speedup: 2.25, MetadataBytes: 559104},
		{Config: Fig6Config{BlockKB: 2, PageKB: 64}, Speedup: 2.625, MetadataBytes: 342016},
		{Config: Fig6Config{BlockKB: 4, PageKB: 128}, Speedup: 2.0625, MetadataBytes: 188416},
	}
}

func TestWriteFig6CSVGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFig6CSV(&buf, fig6Fixture()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig6_emitter.golden.csv", buf.Bytes())
	// Sanity on the format independent of the golden bytes.
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d, want header+3", len(lines))
	}
	if lines[0] != "config,block_kb,page_kb,speedup,metadata_bytes" {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "1-64,1,64,2.25,") {
		t.Errorf("row = %q", lines[1])
	}
}

func TestWriteFig7CSVGolden(t *testing.T) {
	res := []Fig7Result{
		{Label: "C-Only", Speedup: 1.5},
		{Label: "M-Only", Speedup: 1.25},
		{Label: "Bumblebee", Speedup: 2.75},
	}
	var buf bytes.Buffer
	if err := WriteFig7CSV(&buf, res); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig7_emitter.golden.csv", buf.Bytes())
	if !strings.HasPrefix(buf.String(), "variant,speedup\nC-Only,1.5\n") {
		t.Errorf("fig7 csv wrong:\n%s", buf.String())
	}
}

// Fig 7's per-run rows, past the generators' 65536-access
// initialization sweep, are pinned: the emitter goldens above never leave
// the sweep, so they barely reach the movement decisions, HMF and mode
// switches every variant exercises. Regenerate with UPDATE_GOLDEN=1.
func TestFig7SteadyGolden(t *testing.T) {
	h := &Harness{Scale: 1024, Accesses: 150000, Parallel: 2}
	runs, err := h.sweepRows(h.fig7Rows(Fig7Variants()), h.Benchmarks())
	if err != nil {
		t.Fatal(err)
	}
	var flat []RunResult
	for _, r := range runs {
		flat = append(flat, r...)
	}
	var buf bytes.Buffer
	if err := WriteRunsCSV(&buf, flat); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig7_steady.golden.csv", buf.Bytes())
}

// The seed rule itself: the same (design, benchmark) cell reproduces
// bit-identically run-to-run, and run results do not depend on which
// other cells ran first.
func TestRunSeedReproducible(t *testing.T) {
	h := tiny()
	b := h.Benchmarks()[5] // mcf
	r1, err := runDesign(h, "bumblebee", b)
	if err != nil {
		t.Fatal(err)
	}
	// Interleave an unrelated run; it must not perturb the next one.
	if _, err := runDesign(h, "hybrid2", b); err != nil {
		t.Fatal(err)
	}
	r2, err := runDesign(h, "bumblebee", b)
	if err != nil {
		t.Fatal(err)
	}
	if r1.CPU != r2.CPU || r1.Counters != r2.Counters ||
		r1.HBMBytes != r2.HBMBytes || r1.DRAMBytes != r2.DRAMBytes {
		t.Errorf("repeated cell not bit-identical:\n%+v\nvs\n%+v", r1, r2)
	}
}

// Every journal record's seed is the seed of the trace its cell ran:
// each Fig7 variant — the ones that Name() themselves c-only, m-only,
// 25%-c and 50%-c included — records its benchmark's trace seed. Each
// cell is replayed alone from its recorded seed and must reproduce its
// journaled speedup.
func TestFig7JournalSeedsReplayCells(t *testing.T) {
	h := &Harness{Scale: 1024, Accesses: 2000, Parallel: 2}
	dir := t.TempDir()
	j, err := ckpt.Create(dir, ckpt.Meta{Tool: "harness-test", Experiment: "fig7", Scale: 1024, Accesses: 2000})
	if err != nil {
		t.Fatal(err)
	}
	h.Journal = j
	if _, err := h.Fig7(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	l, err := ckpt.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	h.Journal = nil
	for _, b := range h.Benchmarks() {
		var base RunResult
		rec := l.ByCell[h.syntheticCell(config.DesignNoHBM, h.System(), b).id]
		if err := json.Unmarshal(rec.Payload, &base); err != nil {
			t.Fatal(err)
		}
		for _, v := range Fig7Variants() {
			sys := h.System()
			v.Apply(&sys)
			id := h.syntheticCell(config.DesignBumblebee, sys, b).id
			rec, ok := l.ByCell[id]
			if !ok {
				t.Fatalf("%s %s not journaled", v.Label, id)
			}
			var journaled RunResult
			if err := json.Unmarshal(rec.Payload, &journaled); err != nil {
				t.Fatal(err)
			}
			want := journaled.CPU.IPC() / base.CPU.IPC()
			seed, err := strconv.ParseUint(rec.Seed, 0, 64)
			if err != nil {
				t.Fatal(err)
			}
			mem, err := Build(config.DesignBumblebee, sys)
			if err != nil {
				t.Fatal(err)
			}
			pinned := b
			pinned.Profile.Seed = seed
			r, err := h.Run(sys, mem, pinned)
			if err != nil {
				t.Fatal(err)
			}
			if got := r.CPU.IPC() / base.CPU.IPC(); got != want {
				t.Errorf("%s: journal seed %s replays speedup %v, journaled %v", id, rec.Seed, got, want)
			}
		}
	}
}

// Every Fig7 ablation must change what the full design does on at
// least one benchmark, or its bar measures nothing. A variant whose
// journaled result has the full design's digest on a benchmark is inert
// there; those benchmarks are logged, not hidden.
func TestFig7AblationsFire(t *testing.T) {
	h := &Harness{Scale: 1024, Accesses: 20000, Parallel: 2, Journal: ckpt.InMemory()}
	if _, err := h.Fig7(); err != nil {
		t.Fatal(err)
	}
	digest := func(sys config.System, b trace.Benchmark) string {
		t.Helper()
		rec, ok := h.Journal.Lookup(h.syntheticCell(config.DesignBumblebee, sys, b).id)
		if !ok {
			t.Fatalf("%s: cell not journaled", b.Profile.Name)
		}
		return rec.Digest
	}
	bs := h.Benchmarks()
	for _, v := range Fig7Variants() {
		if v.Label == "Bumblebee" {
			continue // the full design itself
		}
		sys := h.System()
		v.Apply(&sys)
		var inert []string
		for _, b := range bs {
			if digest(sys, b) == digest(h.System(), b) {
				inert = append(inert, b.Profile.Name)
			}
		}
		if len(inert) == len(bs) {
			t.Errorf("%s equals the full design on every benchmark", v.Label)
		} else if len(inert) > 0 {
			t.Logf("%s is inert on %v", v.Label, inert)
		}
	}
}
