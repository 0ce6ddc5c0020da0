package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/report"
)

// runMainEnv makes the test binary run main instead of the tests, so the
// tests drive the real command line without building a separate binary.
const runMainEnv = "BBREPRO_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// bbrepro runs the command with args and fails the test on a nonzero
// exit.
func bbrepro(t *testing.T, args ...string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var errOut bytes.Buffer
	cmd.Stderr = &errOut
	if err := cmd.Run(); err != nil {
		t.Fatalf("bbrepro %s: %v\n%s", strings.Join(args, " "), err, errOut.String())
	}
}

// small keeps every sweep in these tests to a fraction of a second per
// cell.
var small = []string{"-scale", "1024", "-accesses", "2000", "-parallel", "2", "-log-level", "error"}

func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestFig8ShardsMerge: the two halves of a sharded Figure 8 sweep merge,
// and the merged runs CSV is the unsharded run's, byte for byte.
func TestFig8ShardsMerge(t *testing.T) {
	root := t.TempDir()
	full := filepath.Join(root, "full")
	bbrepro(t, append([]string{"-experiment", "fig8", "-csv", full}, small...)...)
	var shards []string
	for _, k := range []string{"1/2", "2/2"} {
		dir := filepath.Join(root, "shard"+k[:1])
		bbrepro(t, append([]string{"-experiment", "fig8", "-shard", k, "-csv", dir}, small...)...)
		shards = append(shards, dir)
	}
	merged := filepath.Join(root, "merged")
	if _, err := report.Merge(merged, shards); err != nil {
		t.Fatalf("merge of real shard output: %v", err)
	}
	if got, want := readFile(t, filepath.Join(merged, "fig8_runs.csv")), readFile(t, filepath.Join(full, "fig8_runs.csv")); got != want {
		t.Errorf("merged fig8_runs.csv differs from the unsharded run:\n--- merged ---\n%s--- unsharded ---\n%s", got, want)
	}
}

// TestFig6RunDirVerifies: a -csv directory passes verification, and its
// manifest lists exactly the files the run wrote besides the manifest,
// the session record and the checkpoint journal.
func TestFig6RunDirVerifies(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	bbrepro(t, append([]string{"-experiment", "fig6", "-csv", dir}, small...)...)
	m, err := report.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if errs := m.Verify(dir); len(errs) > 0 {
		t.Fatalf("verify: %v", errs)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var written, listed []string
	for _, e := range ents {
		switch e.Name() {
		case report.ManifestName, report.SessionName, ckpt.FileName:
		default:
			written = append(written, e.Name())
		}
	}
	for _, o := range m.Outputs {
		listed = append(listed, o.Name)
	}
	if !slices.Equal(written, listed) {
		t.Errorf("manifest lists %v, directory holds %v", listed, written)
	}
	if len(listed) == 0 {
		t.Error("fig6 -csv wrote no outputs")
	}
}

// TestResumeRefusesOtherTraceDepth: -trace-depth bounds the event tail
// each journaled run keeps, so a journal written at one depth must not
// serve a resume at another.
func TestResumeRefusesOtherTraceDepth(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	args := append([]string{"-experiment", "fig8", "-telemetry-epoch", "2000"}, small...)
	bbrepro(t, append([]string{"-csv", dir, "-trace-depth", "8"}, args...)...)
	cmd := exec.Command(os.Args[0], append([]string{"-resume", dir, "-trace-depth", "16"}, args...)...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("resume at another -trace-depth succeeded:\n%s", out)
	}
	if !strings.Contains(string(out), "trace_depth=8") || !strings.Contains(string(out), "trace_depth=16") {
		t.Errorf("refusal does not name the trace depths:\n%s", out)
	}
}
