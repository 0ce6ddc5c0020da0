package report

import (
	"encoding/csv"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/alert"
)

// Synthetic sweep for merge tests: 7 run groups (design, bench) in
// global order, a runs CSV with one row per group and a timeline CSV
// with a variable number of rows per group — the shapes the real
// emitters produce.

var mergeGroups = []struct {
	design, bench string
	epochs        int
}{
	{"alloy", "mcf", 1},
	{"alloy", "lbm", 2},
	{"bumblebee", "mcf", 3},
	{"bumblebee", "lbm", 1},
	{"bumblebee", "milc", 2},
	{"pom", "mcf", 1},
	{"pom", "lbm", 4},
}

func writeMergeCSVs(t *testing.T, dir string, own func(i int) bool) {
	t.Helper()
	runs := [][]string{{"design", "bench", "ipc"}}
	tl := [][]string{{"design", "bench", "access"}}
	for i, g := range mergeGroups {
		if !own(i) {
			continue
		}
		runs = append(runs, []string{g.design, g.bench, strconv.Itoa(i)})
		for e := 0; e < g.epochs; e++ {
			tl = append(tl, []string{g.design, g.bench, strconv.Itoa(e * 1000)})
		}
	}
	for name, recs := range map[string][][]string{"runs.csv": runs, "runs_timeline.csv": tl} {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		w := csv.NewWriter(f)
		if err := w.WriteAll(recs); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func writeMergeManifest(t *testing.T, dir, shard string) {
	t.Helper()
	m := New("bbrepro", "fig8", 128, 1000, 0)
	m.GoVersion = "go-test" // pin: the merged manifest must not restamp
	m.Flags = map[string]string{"faults": "0"}
	if shard != "" {
		m.Flags["shard"] = shard
	}
	hashOutput(t, m, dir, "runs.csv", "runs")
	hashOutput(t, m, dir, "runs_timeline.csv", "timeline")
	if err := m.write(dir); err != nil {
		t.Fatal(err)
	}
}

// mergeFixture writes n shard dirs plus the unsharded reference dir and
// returns (shardDirs, referenceDir).
func mergeFixture(t *testing.T, n int) ([]string, string) {
	t.Helper()
	root := t.TempDir()
	ref := filepath.Join(root, "full")
	if err := os.MkdirAll(ref, 0o755); err != nil {
		t.Fatal(err)
	}
	writeMergeCSVs(t, ref, func(int) bool { return true })
	writeMergeManifest(t, ref, "")
	dirs := make([]string, n)
	for k := 1; k <= n; k++ {
		dir := filepath.Join(root, "shard"+strconv.Itoa(k))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		kk := k
		writeMergeCSVs(t, dir, func(i int) bool { return i%n == kk-1 })
		writeMergeManifest(t, dir, strconv.Itoa(k)+"/"+strconv.Itoa(n))
		dirs[k-1] = dir
	}
	return dirs, ref
}

func TestMergeReconstructsUnshardedBytes(t *testing.T) {
	shards, ref := mergeFixture(t, 3)
	dst := filepath.Join(t.TempDir(), "merged")
	res, err := Merge(dst, shards)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shards != 3 || len(res.Files) != 2 {
		t.Fatalf("merge summary = %+v, want 3 shards / 2 files", res)
	}
	for _, name := range []string{"runs.csv", "runs_timeline.csv", ManifestName} {
		want, err := os.ReadFile(filepath.Join(ref, name))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dst, name))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("%s differs from the unsharded reference:\n--- merged ---\n%s--- reference ---\n%s", name, got, want)
		}
	}
	// The merged directory must itself pass verification.
	m, err := ReadManifest(dst)
	if err != nil {
		t.Fatal(err)
	}
	if errs := m.Verify(dst); len(errs) > 0 {
		t.Fatalf("merged dir fails verification: %v", errs)
	}
}

func TestMergeRefusesTamperedShard(t *testing.T) {
	shards, _ := mergeFixture(t, 3)
	path := filepath.Join(shards[1], "runs.csv")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 1
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Merge(filepath.Join(t.TempDir(), "m"), shards)
	if err == nil || !strings.Contains(err.Error(), "verification") {
		t.Fatalf("tampered shard not refused: %v", err)
	}
}

func TestMergeRefusesCoverageGap(t *testing.T) {
	shards, _ := mergeFixture(t, 3)
	_, err := Merge(filepath.Join(t.TempDir(), "m"), shards[:2])
	if err == nil || !strings.Contains(err.Error(), "3-way") {
		t.Fatalf("missing shard not refused: %v", err)
	}
	// Same count but a duplicated index instead of the missing one.
	_, err = Merge(filepath.Join(t.TempDir(), "m2"), []string{shards[0], shards[1], shards[1]})
	if err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("duplicate shard not refused: %v", err)
	}
}

func TestMergeRefusesDigestConflict(t *testing.T) {
	shards, _ := mergeFixture(t, 3)
	// Rewrite shard 3 to claim shard index 2: two dirs now both claim
	// 2/3 with different (self-consistent) contents.
	writeMergeManifest(t, shards[2], "2/3")
	_, err := Merge(filepath.Join(t.TempDir(), "m"), shards)
	if err == nil || !strings.Contains(err.Error(), "digest conflict") {
		t.Fatalf("digest conflict not refused: %v", err)
	}
}

func TestMergeRefusesMismatchedSweep(t *testing.T) {
	shards, _ := mergeFixture(t, 3)
	m, err := ReadManifest(shards[2])
	if err != nil {
		t.Fatal(err)
	}
	m.Accesses = 999
	if err := m.write(shards[2]); err != nil {
		t.Fatal(err)
	}
	_, err = Merge(filepath.Join(t.TempDir(), "m"), shards)
	if err == nil || !strings.Contains(err.Error(), "accesses") {
		t.Fatalf("mismatched sweep identity not refused: %v", err)
	}
}

func TestMergeRefusesUnshardedDir(t *testing.T) {
	shards, ref := mergeFixture(t, 3)
	_, err := Merge(filepath.Join(t.TempDir(), "m"), []string{ref, shards[0], shards[1]})
	if err == nil || !strings.Contains(err.Error(), "not a shard run") {
		t.Fatalf("unsharded dir not refused: %v", err)
	}
}

// Alert-triggering variant of the merge fixture: the same 7-group
// sweep, but with the full counter columns so the default rule set has
// something to fire on — every group breaches the mode-switch rate, and
// every stateful group with 2+ epochs pins its hot table at max and
// skips mover work.
func writeAlertMergeCSVs(t *testing.T, dir string, own func(i int) bool) {
	t.Helper()
	runs := [][]string{{"design", "bench", "served_hbm", "served_dram", "mode_switches"}}
	tl := [][]string{{"design", "bench", "access", "mode_switches", "hot_hbm_entries", "mover_started", "mover_skipped"}}
	for i, g := range mergeGroups {
		if !own(i) {
			continue
		}
		runs = append(runs, []string{g.design, g.bench,
			strconv.Itoa(600 + i), strconv.Itoa(400 - i), strconv.Itoa(700 + i)})
		for e := 0; e < g.epochs; e++ {
			tl = append(tl, []string{g.design, g.bench,
				strconv.Itoa((e + 1) * 1000), strconv.Itoa(100 * (e + 1)),
				"64", "1", strconv.Itoa(5 + i)})
		}
	}
	for name, recs := range map[string][][]string{"runs.csv": runs, "runs_timeline.csv": tl} {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		w := csv.NewWriter(f)
		if err := w.WriteAll(recs); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// alertMergeFixture mirrors mergeFixture over the alert-triggering CSVs.
func alertMergeFixture(t *testing.T, n int) ([]string, string) {
	t.Helper()
	root := t.TempDir()
	ref := filepath.Join(root, "full")
	if err := os.MkdirAll(ref, 0o755); err != nil {
		t.Fatal(err)
	}
	writeAlertMergeCSVs(t, ref, func(int) bool { return true })
	writeMergeManifest(t, ref, "")
	dirs := make([]string, n)
	for k := 1; k <= n; k++ {
		dir := filepath.Join(root, "shard"+strconv.Itoa(k))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		kk := k
		writeAlertMergeCSVs(t, dir, func(i int) bool { return i%n == kk-1 })
		writeMergeManifest(t, dir, strconv.Itoa(k)+"/"+strconv.Itoa(n))
		dirs[k-1] = dir
	}
	return dirs, ref
}

// TestMergePreservesAlertSet: analyzing a 3-shard merged directory must
// produce the identical alert set as the unsharded reference — shard
// boundaries cannot create, drop, or reorder anomalies.
func TestMergePreservesAlertSet(t *testing.T) {
	shards, ref := alertMergeFixture(t, 3)
	dst := filepath.Join(t.TempDir(), "merged")
	if _, err := Merge(dst, shards); err != nil {
		t.Fatal(err)
	}
	refRun, err := LoadRun(ref)
	if err != nil {
		t.Fatal(err)
	}
	mergedRun, err := LoadRun(dst)
	if err != nil {
		t.Fatal(err)
	}
	rs := alert.Defaults()
	want := alert.Evaluate(AlertInput(refRun), rs)
	got := alert.Evaluate(AlertInput(mergedRun), rs)
	if len(want) == 0 {
		t.Fatal("reference fixture fires no alerts; the fixture should breach the default rules")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("merged alert set differs from unsharded reference:\nmerged: %+v\nreference: %+v", got, want)
	}
	// And through the report analyzer (the user-facing path).
	if !reflect.DeepEqual(AnalyzeRules(mergedRun, rs), AnalyzeRules(refRun, rs)) {
		t.Error("AnalyzeRules flags differ between merged and unsharded directories")
	}
}
