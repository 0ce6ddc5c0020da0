package report

import (
	"errors"
	"io"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunDirWriteMatchesHashFile: the hash and size Write records while
// streaming are exactly what re-reading the file gives.
func TestRunDirWriteMatchesHashFile(t *testing.T) {
	dir := t.TempDir()
	m := New("bbrepro", "fig8", 128, 1000, 0)
	rd, err := NewRunDir(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	// Several writes, so the hash covers a stream, not one buffer.
	if err := rd.Write("runs.csv", "runs", func(w io.Writer) error {
		for i := 0; i < 100; i++ {
			if _, err := io.WriteString(w, "bumblebee,mcf,1.25\n"); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	sum, n, err := HashFile(filepath.Join(dir, "runs.csv"))
	if err != nil {
		t.Fatal(err)
	}
	want := OutputFile{Name: "runs.csv", Kind: "runs", Bytes: n, SHA256: sum}
	if len(m.Outputs) != 1 || m.Outputs[0] != want {
		t.Fatalf("recorded %+v, want %+v", m.Outputs, want)
	}
	if n != 1900 {
		t.Fatalf("file holds %d bytes, want 1900", n)
	}
}

// TestRunDirFailedWriteRecordsNothing: a failing fn surfaces its own
// error and leaves the manifest without the output.
func TestRunDirFailedWriteRecordsNothing(t *testing.T) {
	m := New("bbrepro", "fig6", 128, 1000, 0)
	rd, err := NewRunDir(t.TempDir(), m)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err = rd.Write("fig6_sweep.csv", "sweep", func(w io.Writer) error {
		io.WriteString(w, "config,speedup\n")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Write returned %v, want %v", err, boom)
	}
	if len(m.Outputs) != 0 {
		t.Fatalf("failed write recorded %+v", m.Outputs)
	}
}

// TestRunDirShardRefusesUnmergeableKinds: a shard directory holds only
// what Merge can reassemble, so an alert set (computed over the full
// matrix) is refused before anything reaches disk, while per-run
// outputs are accepted.
func TestRunDirShardRefusesUnmergeableKinds(t *testing.T) {
	dir := t.TempDir()
	m := New("bbrepro", "fig8", 128, 1000, 0)
	m.Flags = map[string]string{"shard": "1/2"}
	rd, err := NewRunDir(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	called := false
	err = rd.Write("alerts.json", "alerts", func(io.Writer) error {
		called = true
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "only per-run outputs shard") {
		t.Fatalf("shard dir accepted an alerts output: %v", err)
	}
	if called {
		t.Fatal("refused output was still rendered")
	}
	for _, kind := range []string{"runs", "timeline", "latency"} {
		writeString(t, rd, kind+".csv", kind, "design,bench\n")
	}
	if len(m.Outputs) != 3 {
		t.Fatalf("shard dir recorded %+v, want the 3 per-run outputs", m.Outputs)
	}
}

// TestNilRunDirDiscards: a tool run without an output directory passes a
// nil RunDir, which neither renders nor records anything.
func TestNilRunDirDiscards(t *testing.T) {
	var rd *RunDir
	if err := rd.Write("runs.csv", "runs", func(io.Writer) error {
		t.Fatal("nil RunDir rendered an output")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := rd.Close(&Session{}); err != nil {
		t.Fatal(err)
	}
}
