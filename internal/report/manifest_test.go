package report

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestManifestRoundTrip writes a manifest over real files, reads it back,
// and checks Verify passes clean and catches tampering.
func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m := New("bbrepro", "fig8", 128, 1_000_000, 50_000)
	m.Flags = map[string]string{"faults": "0,2"}
	rd, err := NewRunDir(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	// Write out of name order; Close must sort.
	writeString(t, rd, "runs.csv", "runs", "design,bench\na,b\n")
	writeString(t, rd, "lat.csv", "latency", "tier,count\nchbm,1\n")
	if err := rd.Close(nil); err != nil {
		t.Fatal(err)
	}

	got, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Tool != "bbrepro" || got.Experiment != "fig8" || got.Scale != 128 ||
		got.Accesses != 1_000_000 || got.TelemetryEpoch != 50_000 {
		t.Fatalf("round-trip mismatch: %+v", got)
	}
	if got.SeedRule != SeedRule {
		t.Fatalf("seed rule %q", got.SeedRule)
	}
	if len(got.Outputs) != 2 || got.Outputs[0].Name != "lat.csv" || got.Outputs[1].Name != "runs.csv" {
		t.Fatalf("outputs not sorted: %+v", got.Outputs)
	}
	for _, o := range got.Outputs {
		if len(o.SHA256) != 64 || o.Bytes == 0 {
			t.Fatalf("bad output record: %+v", o)
		}
	}
	if errs := got.Verify(dir); len(errs) != 0 {
		t.Fatalf("clean verify failed: %v", errs)
	}

	// Same-size tamper must be caught by the hash, not the length.
	if err := os.WriteFile(filepath.Join(dir, "runs.csv"), []byte("design,bench\na,c\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	errs := got.Verify(dir)
	if len(errs) != 1 || !strings.Contains(errs[0].Error(), "sha256") {
		t.Fatalf("tamper not detected: %v", errs)
	}

	// A deleted output is a second, distinct failure.
	if err := os.Remove(filepath.Join(dir, "lat.csv")); err != nil {
		t.Fatal(err)
	}
	if errs := got.Verify(dir); len(errs) != 2 {
		t.Fatalf("want 2 verify errors, got %v", errs)
	}
}

// TestManifestDeterministicBytes checks that writing the same manifest
// twice — with outputs written in different orders — yields identical
// bytes, the property the parallel-diff CI check rests on.
func TestManifestDeterministicBytes(t *testing.T) {
	dir := t.TempDir()
	render := func(order []string) []byte {
		rd, err := NewRunDir(dir, New("bbrepro", "fig8", 128, 1000, 0))
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range order {
			writeString(t, rd, n, "table", n)
		}
		if err := rd.Close(nil); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dir, ManifestName))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	fwd := render([]string{"a.csv", "b.csv"})
	rev := render([]string{"b.csv", "a.csv"})
	if string(fwd) != string(rev) {
		t.Fatalf("manifest bytes depend on write order:\n%s\nvs\n%s", fwd, rev)
	}
}

// TestReadSessionMissing checks the archived-run case: no session.json is
// fine, a corrupt one is not.
func TestReadSessionMissing(t *testing.T) {
	dir := t.TempDir()
	s, err := ReadSession(dir)
	if err != nil || s != nil {
		t.Fatalf("missing session: got %+v, %v", s, err)
	}
	if err := os.WriteFile(filepath.Join(dir, SessionName), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSession(dir); err == nil {
		t.Fatal("corrupt session.json not reported")
	}
}

// writeString writes body as rd's output name under kind.
func writeString(t *testing.T, rd *RunDir, name, kind, body string) {
	t.Helper()
	if err := rd.Write(name, kind, func(w io.Writer) error {
		_, err := io.WriteString(w, body)
		return err
	}); err != nil {
		t.Fatal(err)
	}
}

// hashOutput records dir/name, already on disk, in m under kind: test
// fixtures that hand-craft or tamper with a run directory describe it
// the way RunDir would have.
func hashOutput(t *testing.T, m *Manifest, dir, name, kind string) {
	t.Helper()
	sum, n, err := HashFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	m.Outputs = append(m.Outputs, OutputFile{Name: name, Kind: kind, Bytes: n, SHA256: sum})
}
