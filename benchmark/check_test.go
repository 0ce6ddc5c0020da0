package main

import (
	"strings"
	"testing"

	"repro/internal/cpu"
	"repro/internal/harness"
	"repro/internal/hmm"
)

func sound() harness.RunResult {
	return harness.RunResult{
		Design: "bumblebee",
		Bench:  "mcf",
		CPU:    cpu.Result{Instructions: 100, Cycles: 400, Accesses: 10, LLCMisses: 4, Writebacks: 2},
		Counters: hmm.Counters{
			Requests: 4, Writebacks: 2, ServedHBM: 3, ServedDRAM: 1,
		},
		HBMBytes:  192,
		DRAMBytes: 64,
	}
}

func TestCheckCellRejectsDoctoredResults(t *testing.T) {
	if bad := checkCell(sound(), 10); len(bad) != 0 {
		t.Fatalf("sound result rejected: %v", bad)
	}
	for _, c := range []struct {
		name   string
		doctor func(*harness.RunResult)
		want   string
	}{
		{"dropped request", func(r *harness.RunResult) {
			r.Counters.Requests--
			r.Counters.ServedDRAM--
		}, "LLC misses"},
		{"double-served request", func(r *harness.RunResult) { r.Counters.ServedDRAM++ }, "served HBM"},
		{"lost writeback", func(r *harness.RunResult) { r.Counters.Writebacks-- }, "CPU writebacks"},
		{"short run", func(r *harness.RunResult) { r.CPU.Accesses-- }, "planned"},
		{"no-hbm touching HBM", func(r *harness.RunResult) {
			r.Design = "no-hbm"
		}, "no-hbm touched HBM"},
	} {
		r := sound()
		c.doctor(&r)
		bad := checkCell(r, 10)
		if len(bad) != 1 || !strings.Contains(bad[0], c.want) {
			t.Errorf("%s: checkCell = %v, want one %q violation", c.name, bad, c.want)
		}
		if len(bad) > 0 && !strings.HasPrefix(bad[0], r.Design+"/mcf: ") {
			t.Errorf("%s: violation %q does not name its cell", c.name, bad[0])
		}
	}
}

func TestSimDigestCoversEveryStatistic(t *testing.T) {
	base := simDigest([]harness.RunResult{sound()}, nil)
	if base != simDigest([]harness.RunResult{sound()}, nil) {
		t.Fatal("digest is not deterministic")
	}
	r := sound()
	r.CPU.Cycles++
	if simDigest([]harness.RunResult{r}, nil) == base {
		t.Error("a cycle count change left the digest unchanged")
	}
	r = sound()
	r.Energy.HBMReadPJ = 1
	if simDigest([]harness.RunResult{r}, nil) == base {
		t.Error("an energy change left the digest unchanged")
	}
	if simDigest([]harness.RunResult{sound()}, []float64{1}) == base {
		t.Error("extra output is not folded into the digest")
	}
	// Telemetry is optional output, not a simulated statistic.
	r = sound()
	r.Telemetry = &harness.RunTelemetry{Epoch: 7}
	if simDigest([]harness.RunResult{r}, nil) != base {
		t.Error("telemetry changed the digest")
	}
}
