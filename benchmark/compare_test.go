package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	wall, _ := findMetric(endToEnd, "wall_s")
	rate, _ := findMetric(endToEnd, "accesses_per_s")
	setup, _ := findMetric(endToEnd, "setup_s")
	tight := []float64{0.99, 1.0, 1.0, 1.0, 1.01} // IQR 1% of the median
	scaled := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		name     string
		def      metricDef
		old, new []float64
		want     string
	}{
		{"within bound", wall, tight, scaled(tight, 1.05), unchanged},
		{"slower beyond bound", wall, tight, scaled(tight, 1.30), worse},
		{"faster beyond bound", wall, tight, scaled(tight, 0.70), better},
		{"higher is better, fell", rate, tight, scaled(tight, 0.70), worse},
		{"higher is better, rose", rate, tight, scaled(tight, 1.30), better},
		{"parent too noisy", wall, []float64{1, 1.5, 2, 2.5, 3}, scaled(tight, 1.30), unresolved},
		{"parent noisy, every new run faster", wall, []float64{1, 1.5, 2, 2.5, 3}, scaled(tight, 0.5), better},
		{"no samples", wall, nil, tight, unresolved},
		// 0.2 ms doubling is under the 10 ms setup floor.
		{"setup under floor", setup, scaled(tight, 0.0002), scaled(tight, 0.0004), unchanged},
		{"setup over floor", setup, scaled(tight, 0.1), scaled(tight, 0.2), worse},
		// Noise in a sub-millisecond setup is within the floor, not unresolved.
		{"noisy setup under floor", setup, []float64{0.0001, 0.0002, 0.0003}, []float64{0.0002}, unchanged},
	} {
		if got := verdict(c.def, summarize(c.old), summarize(c.new)); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	st := stamp{GoVersion: "go1.22", GOOS: "linux", GOARCH: "amd64", CPUModel: "x", NProc: 2, GOMAXPROCS: 2}
	files := 0
	mk := func(wall float64, digest string, s stamp, failed int) string {
		samples := []float64{wall * 0.99, wall, wall * 1.01}
		m := map[string]summary{}
		for _, d := range endToEnd {
			m[d.Name] = summarize(samples)
		}
		r := &results{Stamp: s, Seed: 1, Workloads: []workloadResult{{
			Name: "gen-heavy", Seeded: true, SimDigest: digest, Metrics: m,
			CellsAttempted: 6, CellsFailed: failed,
		}}}
		files++
		path := filepath.Join(dir, fmt.Sprintf("results%d.json", files))
		if err := writeJSON(path, r); err != nil {
			t.Fatal(err)
		}
		return path
	}
	compare := func(a, b string) (int, string, string) {
		var out, errb bytes.Buffer
		code := runCompare([]string{a, b}, &out, &errb)
		return code, out.String(), errb.String()
	}

	base := mk(1, "aa", st, 0)
	if code, out, _ := compare(base, mk(1.02, "aa", st, 0)); code != 0 || strings.Contains(out, worse) {
		t.Errorf("self-similar compare: exit %d\n%s", code, out)
	}
	code, out, _ := compare(base, mk(1.5, "aa", st, 0))
	if code != 1 || !strings.Contains(out, "wall_s") || !strings.Contains(out, worse) {
		t.Errorf("slower run not flagged: exit %d\n%s", code, out)
	}
	if code, out, _ := compare(base, mk(1, "bb", st, 0)); code != 1 || !strings.Contains(out, "SIM_DIGEST CHANGED") {
		t.Errorf("digest change not flagged: exit %d\n%s", code, out)
	}
	if code, out, _ := compare(base, mk(1, "aa", st, 2)); code != 1 || !strings.Contains(out, "cells_failed") {
		t.Errorf("new failures not flagged: exit %d\n%s", code, out)
	}
	other := st
	other.CPUModel = "y"
	if code, _, errOut := compare(base, mk(1, "cc", other, 0)); code != 2 || !strings.Contains(errOut, "cpu_model") {
		t.Errorf("cross-machine compare not refused: exit %d: %s", code, errOut)
	}
	if code, _, _ := compare(base, filepath.Join(dir, "missing.json")); code != 2 {
		t.Errorf("missing file: exit %d, want 2", code)
	}
}
