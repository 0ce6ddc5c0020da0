package harness

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/config"
)

// Figure 8 normalizes every design by the no-HBM run on the same
// workload, so all seven designs of a benchmark — the baseline included —
// must run the same trace. Whatever the trace and the cache hierarchy
// alone decide must then be equal across them.
func TestFig8DesignsSeeSameTrace(t *testing.T) {
	const accesses = 5000
	h := &Harness{Scale: 1024, Accesses: accesses, Parallel: 2}
	dir := t.TempDir()
	j, err := ckpt.Create(dir, ckpt.Meta{Tool: "harness-test", Experiment: "fig8", Scale: 1024, Accesses: accesses})
	if err != nil {
		t.Fatal(err)
	}
	h.Journal = j
	res, err := h.Fig8()
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	l, err := ckpt.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	bs := h.Benchmarks()
	for bi, b := range bs {
		name := b.Profile.Name
		rec, ok := l.ByCell[h.syntheticCell(config.DesignNoHBM, h.System(), b).id]
		if !ok {
			t.Fatalf("no baseline cell journaled for %s", name)
		}
		var base RunResult
		if err := json.Unmarshal(rec.Payload, &base); err != nil {
			t.Fatal(err)
		}
		want := base.CPU
		if want.Accesses != accesses {
			t.Fatalf("%s baseline ran %d accesses, want %d", name, want.Accesses, accesses)
		}
		for di, d := range Fig8Designs {
			got := res.PerRun[di*len(bs)+bi].CPU
			if got.Accesses != want.Accesses || got.Instructions != want.Instructions ||
				got.LLCMisses != want.LLCMisses || got.Writebacks != want.Writebacks {
				t.Errorf("%s/%s: accesses %d, instructions %d, LLC misses %d, writebacks %d; "+
					"no-HBM ran %d, %d, %d, %d: the designs ran different traces",
					d, name, got.Accesses, got.Instructions, got.LLCMisses, got.Writebacks,
					want.Accesses, want.Instructions, want.LLCMisses, want.Writebacks)
			}
		}
	}
}

// Fig8's per-run rows at a small scale are pinned, so a change to the
// trace-seed rule (or to anything else the figure runs) shows up as a
// reviewed diff. The run is longer than the generators' initialization
// sweep (up to 65536 accesses, the same for every seed), so every row
// depends on its seed. Regenerate with UPDATE_GOLDEN=1.
func TestFig8RunsGolden(t *testing.T) {
	h := &Harness{Scale: 1024, Accesses: 80000, Parallel: 2}
	res, err := h.Fig8()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteRunsCSV(&buf, res.PerRun); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig8_runs.golden.csv", buf.Bytes())
}
