package ckpt

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faults"
)

func testMeta() Meta {
	return Meta{
		Tool:           "bbrepro",
		Experiment:     "fig8",
		Scale:          4096,
		Accesses:       100000,
		TelemetryEpoch: 2048,
	}
}

type cellResult struct {
	Design string  `json:"design"`
	Bench  string  `json:"bench"`
	AMAT   float64 `json:"amat"`
}

func appendCells(t *testing.T, j *Journal, n int) []cellResult {
	t.Helper()
	out := make([]cellResult, n)
	for i := 0; i < n; i++ {
		out[i] = cellResult{Design: "bumblebee", Bench: fmt.Sprintf("bench%02d", i), AMAT: 1.0 + float64(i)/16}
		cell := fmt.Sprintf("fig8/bumblebee/bench%02d", i)
		if err := j.Append(cell, uint64(0x1000+i), 1, out[i]); err != nil {
			t.Fatalf("Append %s: %v", cell, err)
		}
	}
	return out
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, err := Create(dir, testMeta())
	if err != nil {
		t.Fatal(err)
	}
	want := appendCells(t, j, 5)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	l, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if l == nil {
		t.Fatal("Load returned nil for existing journal")
	}
	if l.Meta.Format != magic || l.Meta.Version != Version || l.Meta.Experiment != "fig8" {
		t.Fatalf("header round trip: %+v", l.Meta)
	}
	if l.DroppedTail != 0 || l.Warning != "" {
		t.Fatalf("clean journal reported damage: dropped=%d warning=%q", l.DroppedTail, l.Warning)
	}
	if len(l.Records) != len(want) {
		t.Fatalf("got %d records, want %d", len(l.Records), len(want))
	}
	for i, rec := range l.Records {
		var got cellResult
		if err := json.Unmarshal(rec.Payload, &got); err != nil {
			t.Fatalf("record %d payload: %v", i, err)
		}
		if got != want[i] {
			t.Fatalf("record %d: got %+v want %+v", i, got, want[i])
		}
		if rec.Digest != Digest(rec.Payload) {
			t.Fatalf("record %d: digest mismatch", i)
		}
		if rec.Seed != FormatSeed(uint64(0x1000+i)) {
			t.Fatalf("record %d: seed %s", i, rec.Seed)
		}
		if rec.Attempts != 1 {
			t.Fatalf("record %d: attempts %d", i, rec.Attempts)
		}
	}
}

func TestLoadMissingIsNil(t *testing.T) {
	l, err := Load(t.TempDir())
	if err != nil || l != nil {
		t.Fatalf("got (%v, %v), want (nil, nil)", l, err)
	}
}

// journalBytes builds a valid journal on disk and returns its raw bytes
// plus the directory, for corruption tests to mangle.
func journalBytes(t *testing.T, n int) (string, []byte) {
	t.Helper()
	dir := t.TempDir()
	j, err := Create(dir, testMeta())
	if err != nil {
		t.Fatal(err)
	}
	appendCells(t, j, n)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, FileName))
	if err != nil {
		t.Fatal(err)
	}
	return dir, data
}

func rewrite(t *testing.T, dir string, data []byte) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, FileName), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestTruncatedTailRecovered(t *testing.T) {
	dir, data := journalBytes(t, 4)
	// SIGKILL mid-write: chop the file mid-way through the final record.
	rewrite(t, dir, data[:len(data)-7])

	l, err := Load(dir)
	if err != nil {
		t.Fatalf("torn tail must be recoverable, got error: %v", err)
	}
	if len(l.Records) != 3 {
		t.Fatalf("got %d records, want 3 (last torn)", len(l.Records))
	}
	if l.DroppedTail != 1 {
		t.Fatalf("DroppedTail = %d, want 1", l.DroppedTail)
	}
	if !strings.Contains(l.Warning, "torn final record") {
		t.Fatalf("warning %q does not explain the torn tail", l.Warning)
	}
	if int(l.GoodBytes) >= len(data) {
		t.Fatalf("GoodBytes %d not shorter than file %d", l.GoodBytes, len(data))
	}

	// Resume must truncate the torn tail and carry the 3 good cells.
	j, loaded, err := Resume(dir, testMeta())
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	defer j.Close()
	if loaded == nil || len(loaded.Records) != 3 {
		t.Fatalf("Resume loaded %+v, want 3 records", loaded)
	}
	if j.Resumed() != 3 {
		t.Fatalf("Resumed() = %d, want 3", j.Resumed())
	}
	if fi, err := os.Stat(filepath.Join(dir, FileName)); err != nil || fi.Size() != l.GoodBytes {
		t.Fatalf("file size %v after Resume, want truncated to %d", fi.Size(), l.GoodBytes)
	}
	if _, ok := j.Lookup("fig8/bumblebee/bench02"); !ok {
		t.Fatal("good cell missing from resume cache")
	}
	if _, ok := j.Lookup("fig8/bumblebee/bench03"); ok {
		t.Fatal("torn cell must not be in resume cache")
	}
}

func TestFlippedCRCByteDropsTail(t *testing.T) {
	dir, data := journalBytes(t, 4)
	lines := strings.SplitAfter(string(data), "\n")
	// Flip one byte inside record 3's JSON (line index 3: header + 2 good).
	bad := []byte(lines[3])
	bad[20] ^= 0x01
	lines[3] = string(bad)
	rewrite(t, dir, []byte(strings.Join(lines, "")))

	l, err := Load(dir)
	if err != nil {
		t.Fatalf("flipped CRC mid-file must tail-drop, got error: %v", err)
	}
	if len(l.Records) != 2 {
		t.Fatalf("got %d records, want 2 (bad line and everything after dropped)", len(l.Records))
	}
	// The bad line and the good line after it are both dropped: a record
	// after damage cannot be trusted to be in-order.
	if l.DroppedTail != 2 {
		t.Fatalf("DroppedTail = %d, want 2", l.DroppedTail)
	}
	if !strings.Contains(l.Warning, "crc mismatch") {
		t.Fatalf("warning %q does not name the CRC failure", l.Warning)
	}
}

func TestDuplicateCellSameDigestTolerated(t *testing.T) {
	dir := t.TempDir()
	j, err := Create(dir, testMeta())
	if err != nil {
		t.Fatal(err)
	}
	res := cellResult{Design: "alloy", Bench: "mcf", AMAT: 2.5}
	// An abandoned timed-out attempt completing late double-appends the
	// same deterministic result with a higher attempt count.
	if err := j.Append("fig8/alloy/mcf", 7, 1, res); err != nil {
		t.Fatal(err)
	}
	if err := j.Append("fig8/alloy/mcf", 7, 2, res); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	l, err := Load(dir)
	if err != nil {
		t.Fatalf("same-digest duplicate must be tolerated: %v", err)
	}
	if len(l.Records) != 1 {
		t.Fatalf("got %d records, want duplicates collapsed to 1", len(l.Records))
	}
	if l.Records[0].Attempts != 2 {
		t.Fatalf("kept attempts=%d, want the later record (2)", l.Records[0].Attempts)
	}
	if !strings.Contains(l.Warning, "duplicate record") {
		t.Fatalf("warning %q does not mention the duplicate", l.Warning)
	}
}

func TestDuplicateCellDigestConflictRefused(t *testing.T) {
	dir := t.TempDir()
	j, err := Create(dir, testMeta())
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append("fig8/alloy/mcf", 7, 1, cellResult{Design: "alloy", Bench: "mcf", AMAT: 2.5}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append("fig8/alloy/mcf", 7, 1, cellResult{Design: "alloy", Bench: "mcf", AMAT: 9.9}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	_, err = Load(dir)
	if err == nil {
		t.Fatal("conflicting duplicate digests must refuse to load")
	}
	if !strings.Contains(err.Error(), "different digests") || !strings.Contains(err.Error(), "determinism") {
		t.Fatalf("error %q does not diagnose the digest conflict", err)
	}
}

func TestFutureVersionRefused(t *testing.T) {
	dir := t.TempDir()
	meta := testMeta().stamp()
	meta.Version = Version + 1
	js, err := json.Marshal(meta)
	if err != nil {
		t.Fatal(err)
	}
	rewrite(t, dir, frame(js))

	_, err = Load(dir)
	if err == nil {
		t.Fatal("future-version header must refuse to load")
	}
	if !strings.Contains(err.Error(), "newer tool") {
		t.Fatalf("error %q does not explain the version skew", err)
	}
}

func TestWrongFormatRefused(t *testing.T) {
	dir := t.TempDir()
	rewrite(t, dir, frame([]byte(`{"format":"something-else","version":1}`)))
	_, err := Load(dir)
	if err == nil || !strings.Contains(err.Error(), "not a checkpoint journal") {
		t.Fatalf("got %v, want format refusal", err)
	}
}

func TestCorruptHeaderRefused(t *testing.T) {
	dir, data := journalBytes(t, 2)
	data[12] ^= 0x01 // inside the header JSON → header CRC fails
	rewrite(t, dir, data)
	_, err := Load(dir)
	if err == nil || !strings.Contains(err.Error(), "header") {
		t.Fatalf("got %v, want header diagnostic", err)
	}
}

func TestResumeMetaMismatchRefused(t *testing.T) {
	dir, _ := journalBytes(t, 2)
	other := testMeta()
	other.Scale = 8192
	_, _, err := Resume(dir, other)
	if err == nil || !strings.Contains(err.Error(), "different sweep") {
		t.Fatalf("got %v, want sweep-identity refusal", err)
	}
}

func TestResumeWithoutJournalCreates(t *testing.T) {
	dir := t.TempDir()
	j, loaded, err := Resume(dir, testMeta())
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if loaded != nil {
		t.Fatalf("fresh Resume loaded %+v, want nil", loaded)
	}
	if j.Resumed() != 0 {
		t.Fatalf("Resumed() = %d, want 0", j.Resumed())
	}
	if _, err := os.Stat(filepath.Join(dir, FileName)); err != nil {
		t.Fatalf("journal not created: %v", err)
	}
}

func TestFsyncCadence(t *testing.T) {
	dir := t.TempDir()
	j, err := Create(dir, testMeta())
	if err != nil {
		t.Fatal(err)
	}
	j.FsyncEvery = 3
	header := j.Fsyncs() // Create syncs the header
	appendCells(t, j, 7)
	// 7 appends at cadence 3 → fsyncs after records 3 and 6.
	if got := j.Fsyncs() - header; got != 2 {
		t.Fatalf("%d fsyncs after 7 appends, want 2", got)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if got := j.Fsyncs() - header; got != 3 {
		t.Fatalf("Close must fsync the remainder: %d fsyncs, want 3", got)
	}
	// Header sync + the three after it.
	if got := j.Fsyncs(); got != 4 {
		t.Fatalf("Fsyncs() = %d, want 4", got)
	}
}

func TestAppendWriteFailurePropagates(t *testing.T) {
	var sink strings.Builder
	j := &Journal{
		w:      &faults.FailingWriter{W: &sink, FailAt: 200},
		cached: make(map[string]Record),
	}
	if err := j.writeHeader(testMeta()); err != nil {
		t.Fatalf("header fits the budget: %v", err)
	}
	var err error
	for i := 0; i < 10 && err == nil; i++ {
		err = j.Append(fmt.Sprintf("cell%d", i), 1, 1, cellResult{Design: "x", Bench: "y"})
	}
	if err == nil {
		t.Fatal("exhausted write budget must surface an error")
	}
	if !errors.Is(err, faults.ErrInjectedWrite) {
		t.Fatalf("error %v does not wrap the injected failure", err)
	}
	if !strings.Contains(err.Error(), "append cell") {
		t.Fatalf("error %q does not say which operation failed", err)
	}
}

func TestHeaderWriteFailurePropagates(t *testing.T) {
	var sink strings.Builder
	j := &Journal{
		w:      &faults.FailingWriter{W: &sink, FailAt: 0},
		cached: make(map[string]Record),
	}
	err := j.writeHeader(testMeta())
	if !errors.Is(err, faults.ErrInjectedWrite) {
		t.Fatalf("got %v, want injected failure", err)
	}
}

func TestCreateFailsThroughPublicAPI(t *testing.T) {
	// Create in an unwritable directory surfaces the OS error.
	dir := t.TempDir()
	sub := filepath.Join(dir, "ro")
	if err := os.Mkdir(sub, 0o555); err != nil {
		t.Fatal(err)
	}
	if _, err := Create(sub, testMeta()); err == nil {
		t.Skip("running as root: unwritable dirs are writable")
	}
}

func TestTraceAppendHook(t *testing.T) {
	dir := t.TempDir()
	j, err := Create(dir, testMeta())
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	var cells []string
	var outcomes []error
	j.TraceAppend = func(cell string) func(error) {
		cells = append(cells, cell)
		return func(err error) { outcomes = append(outcomes, err) }
	}
	if err := j.Append("fig8/bumblebee/mcf", 0x1, 1, cellResult{Design: "bumblebee"}); err != nil {
		t.Fatal(err)
	}
	// An unserializable payload must report its error to the hook too.
	if err := j.Append("fig8/bumblebee/bad", 0x2, 1, func() {}); err == nil {
		t.Fatal("Append of unserializable payload succeeded")
	}
	if len(cells) != 2 || cells[0] != "fig8/bumblebee/mcf" || cells[1] != "fig8/bumblebee/bad" {
		t.Fatalf("hook saw cells %v", cells)
	}
	if len(outcomes) != 2 || outcomes[0] != nil || outcomes[1] == nil {
		t.Fatalf("hook saw outcomes %v", outcomes)
	}
}
