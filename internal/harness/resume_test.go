package harness

import (
	"bytes"
	"context"
	"errors"
	"log/slog"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/config"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/runner"
)

// The crash-safe contract end to end: a sweep that dies mid-run and
// resumes from its checkpoint journal must emit byte-identical CSV
// output to a sweep that never died, because every resumed cell replays
// the exact serialized result the journal recorded.

func resumeHarness() *Harness {
	return &Harness{Scale: 1024, Accesses: 6000, Parallel: 4, TelemetryEpoch: 2000}
}

var resumeDesigns = []config.Design{config.DesignBumblebee, config.DesignAlloy}
var resumeRates = []float64{0, 10}

func figFaultBytes(t *testing.T, h *Harness) []byte {
	t.Helper()
	res, err := h.FigFaultWith(resumeDesigns, resumeRates)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteFigFaultCSV(&buf, res); err != nil {
		t.Fatal(err)
	}
	if err := WriteRunsCSV(&buf, res.PerRun); err != nil {
		t.Fatal(err)
	}
	if err := WriteTimelineCSV(&buf, res.PerRun); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func resumeMeta() ckpt.Meta {
	return ckpt.Meta{Tool: "harness-test", Experiment: "figfault", Scale: 1024, Accesses: 6000, TelemetryEpoch: 2000}
}

func TestResumeAfterKillByteIdentical(t *testing.T) {
	// Reference: uninterrupted, journal-free.
	want := figFaultBytes(t, resumeHarness())

	// Full journaled run.
	dir := t.TempDir()
	j, err := ckpt.Create(dir, resumeMeta())
	if err != nil {
		t.Fatal(err)
	}
	h := resumeHarness()
	h.Journal = j
	if got := figFaultBytes(t, h); !bytes.Equal(got, want) {
		t.Fatal("journaled run differs from journal-free run")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a SIGKILL mid-write: chop the journal mid-record.
	path := filepath.Join(dir, ckpt.FileName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:2*len(data)/3], 0o644); err != nil {
		t.Fatal(err)
	}

	// Resume: remaining cells re-run, journal-backed cells replay.
	j2, loaded, err := ckpt.Resume(dir, resumeMeta())
	if err != nil {
		t.Fatal(err)
	}
	if loaded == nil || len(loaded.Records) == 0 {
		t.Fatal("truncated journal should still hold a good prefix")
	}
	h2 := resumeHarness()
	h2.Journal = j2
	got := figFaultBytes(t, h2)
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("resumed run differs from uninterrupted run:\n--- resumed ---\n%.400s\n--- reference ---\n%.400s", got, want)
	}
	if j2.Resumed() == 0 {
		t.Error("resume served no cells from the journal")
	}

	// A second resume over the now-complete journal replays everything.
	j3, _, err := ckpt.Resume(dir, resumeMeta())
	if err != nil {
		t.Fatal(err)
	}
	h3 := resumeHarness()
	h3.Journal = j3
	if got := figFaultBytes(t, h3); !bytes.Equal(got, want) {
		t.Error("fully-replayed run differs from uninterrupted run")
	}
	cellCount := len(resumeDesigns) * len(resumeRates) * len(resumeHarness().Benchmarks())
	if j3.Resumed() != cellCount {
		t.Errorf("full replay resumed %d cells, want %d", j3.Resumed(), cellCount)
	}
	j3.Close()
}

// interruptAfter is a slog handler that closes stop after the n-th
// cell-completion record, standing in for SIGINT arriving mid-sweep.
type interruptAfter struct {
	mu   sync.Mutex
	n    int
	stop chan struct{}
}

func (ia *interruptAfter) Handle(ctx context.Context, r slog.Record) error {
	ia.mu.Lock()
	defer ia.mu.Unlock()
	if r.Message == "figfault" {
		ia.n--
		if ia.n == 0 {
			close(ia.stop)
		}
	}
	return nil
}

func (ia *interruptAfter) Enabled(ctx context.Context, level slog.Level) bool { return true }
func (ia *interruptAfter) WithAttrs(attrs []slog.Attr) slog.Handler           { return ia }
func (ia *interruptAfter) WithGroup(name string) slog.Handler                 { return ia }

func TestInterruptedSweepResumesToIdenticalBytes(t *testing.T) {
	want := figFaultBytes(t, resumeHarness())

	dir := t.TempDir()
	j, err := ckpt.Create(dir, resumeMeta())
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	h := resumeHarness()
	h.Parallel = 2
	h.Journal = j
	h.Interrupt = stop
	h.Log = slog.New(&interruptAfter{n: 5, stop: stop})
	_, err = h.FigFaultWith(resumeDesigns, resumeRates)
	if !errors.Is(err, runner.ErrInterrupted) {
		t.Fatalf("interrupted sweep returned %v, want ErrInterrupted", err)
	}
	var intr *runner.Interrupted
	if !errors.As(err, &intr) || intr.Skipped == 0 {
		t.Fatalf("interrupt should have skipped cells: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, loaded, err := ckpt.Resume(dir, resumeMeta())
	if err != nil {
		t.Fatal(err)
	}
	if loaded == nil || len(loaded.Records) == 0 {
		t.Fatal("drained sweep should have checkpointed its completed cells")
	}
	h2 := resumeHarness()
	h2.Journal = j2
	got := figFaultBytes(t, h2)
	j2.Close()
	if !bytes.Equal(got, want) {
		t.Error("resume after graceful drain differs from uninterrupted run")
	}
}

// A cell that overruns CellTimeout fails once: the sweep names it by
// its cell index and never runs it again, while every other cell
// completes and is journaled.
func TestTimedOutCellFailsOnce(t *testing.T) {
	dir := t.TempDir()
	j, err := ckpt.Create(dir, resumeMeta())
	if err != nil {
		t.Fatal(err)
	}
	h := resumeHarness()
	h.Journal = j
	h.CellTimeout = 50 * time.Millisecond
	const hung = 2
	release := make(chan struct{})
	var calls [5]atomic.Int32
	cells := make([]cell, len(calls))
	for i := range cells {
		cells[i] = cell{ID: cellID("t", strconv.Itoa(i)), Seed: uint64(i + 1)}
	}
	out, err := sweepCells(h, cells, nil, func(i int) (int, error) {
		calls[i].Add(1)
		if i == hung {
			<-release
		}
		return i + 10, nil
	})
	var errs runner.Errors
	if !errors.As(err, &errs) || len(errs) != 1 || errs[0].Index != hung ||
		!errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want cell %d failed with a deadline", err, hung)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// The abandoned run returns now, into a closed journal.
	close(release)
	for i := range calls {
		if n := calls[i].Load(); n != 1 {
			t.Errorf("cell %d ran %d times, want once", i, n)
		}
	}
	l, err := ckpt.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cells {
		_, journaled := l.ByCell[c.ID]
		if i == hung {
			if journaled || out[i] != 0 {
				t.Errorf("timed-out cell %d: journaled %v, result %d", i, journaled, out[i])
			}
			continue
		}
		if !journaled || out[i] != i+10 {
			t.Errorf("cell %d: journaled %v, result %d, want %d", i, journaled, out[i], i+10)
		}
	}
}

func TestJournalAppendFailureFailsSweep(t *testing.T) {
	dir := t.TempDir()
	j, err := ckpt.Create(dir, resumeMeta())
	if err != nil {
		t.Fatal(err)
	}
	// Close the journal under the sweep: every Append now errors, and
	// the sweep must fail loudly instead of silently losing resumability.
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	h := resumeHarness()
	h.Journal = j
	_, err = h.FigFaultWith(resumeDesigns[:1], resumeRates[:1])
	if err == nil {
		t.Fatal("sweep with a dead journal must fail")
	}
	var ce *runner.CellError
	if !errors.As(err, &ce) {
		t.Fatalf("journal failure not surfaced as a cell error: %v", err)
	}
}

// Mix runs its no-HBM baseline as cell 0 of its own sweep, so the
// baseline is observed and journaled like every design, and a resumed
// mix replays every cell and reproduces the uninterrupted result.
func TestMixBaselineInSweep(t *testing.T) {
	names := []string{"mcf", "leela"}
	h := &Harness{Scale: 1024, Accesses: 8000, Parallel: 2}
	want, err := h.Mix(names)
	if err != nil {
		t.Fatal(err)
	}
	n := uint64(1 + len(Fig8Designs))
	meta := ckpt.Meta{Tool: "harness-test", Experiment: "mix", Scale: 1024, Accesses: 8000}
	dir := t.TempDir()
	j, err := ckpt.Create(dir, meta)
	if err != nil {
		t.Fatal(err)
	}
	h.Journal, h.Obs = j, obs.NewSweep("mix")
	if _, err := h.Mix(names); err != nil {
		t.Fatal(err)
	}
	if snap := h.Obs.Snapshot(); snap.Planned != n || snap.Done != n {
		t.Errorf("mix observed %d of %d planned cells done, want %d of %d", snap.Done, snap.Planned, n, n)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, l, err := ckpt.Resume(dir, meta)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if _, ok := l.ByCell[cellID("mix", string(config.DesignNoHBM))]; !ok {
		t.Fatal("mix baseline not journaled")
	}
	h.Journal, h.Obs = j2, obs.NewSweep("mix")
	got, err := h.Mix(names)
	if err != nil {
		t.Fatal(err)
	}
	if snap := h.Obs.Snapshot(); snap.Resumed != n {
		t.Errorf("resumed %d mix cells, want %d", snap.Resumed, n)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("resumed mix differs from the uninterrupted one:\n%+v\nvs\n%+v", got, want)
	}
}

// A journal record made under another seed rule is not the cell's
// result: resuming it fails the cell instead of mixing the two rules.
func TestResumeRefusesOtherSeed(t *testing.T) {
	h := &Harness{Scale: 1024, Accesses: 2000, Parallel: 2}
	b := h.Benchmarks()[0]
	dir := t.TempDir()
	j, err := ckpt.Create(dir, ckpt.Meta{Tool: "harness-test", Experiment: "table2", Scale: 1024, Accesses: 2000})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	id := h.syntheticCell(config.DesignNoHBM, h.System(), b).id
	if err := j.Append(id, runner.Seed(string(config.DesignNoHBM), b.Profile.Name), RunResult{}); err != nil {
		t.Fatal(err)
	}
	h.Journal = j
	_, err = h.Table2()
	var errs runner.Errors
	if !errors.As(err, &errs) || len(errs) != 1 || errs[0].Index != 0 ||
		!strings.Contains(err.Error(), "recorded with seed") {
		t.Fatalf("err = %v, want cell 0 refused for its recorded seed", err)
	}
}

func TestCSVWriteFailurePropagates(t *testing.T) {
	h := resumeHarness()
	h.Accesses = 3000
	res, err := h.FigFaultWith(resumeDesigns[:1], resumeRates[:1])
	if err != nil {
		t.Fatal(err)
	}
	var sink bytes.Buffer
	for _, failAt := range []int{0, 40} {
		sink.Reset()
		w := &faults.FailingWriter{W: &sink, FailAt: failAt}
		if err := WriteFigFaultCSV(w, res); !errors.Is(err, faults.ErrInjectedWrite) {
			t.Errorf("WriteFigFaultCSV(failAt=%d) = %v, want injected failure", failAt, err)
		}
		sink.Reset()
		w = &faults.FailingWriter{W: &sink, FailAt: failAt}
		if err := WriteRunsCSV(w, res.PerRun); !errors.Is(err, faults.ErrInjectedWrite) {
			t.Errorf("WriteRunsCSV(failAt=%d) = %v, want injected failure", failAt, err)
		}
		sink.Reset()
		w = &faults.FailingWriter{W: &sink, FailAt: failAt}
		if err := WriteTimelineCSV(w, res.PerRun); !errors.Is(err, faults.ErrInjectedWrite) {
			t.Errorf("WriteTimelineCSV(failAt=%d) = %v, want injected failure", failAt, err)
		}
	}
}

func TestShardedFig8PartitionsExactly(t *testing.T) {
	h := &Harness{Scale: 2048, Accesses: 3000, Parallel: 4}
	full, err := h.Fig8()
	if err != nil {
		t.Fatal(err)
	}
	const n = 3
	var shards [n]*Fig8Result
	for k := 1; k <= n; k++ {
		hs := &Harness{Scale: 2048, Accesses: 3000, Parallel: 4, Shard: runner.Shard{K: k, N: n}}
		shards[k-1], err = hs.Fig8()
		if err != nil {
			t.Fatalf("shard %d/%d: %v", k, n, err)
		}
		if shards[k-1].IPC != nil {
			t.Fatalf("shard %d/%d built group tables; they need the full matrix", k, n)
		}
	}
	// Round-robin reconstruction: global row i lives at shard i%n,
	// local position i/n — the merge contract bbreport relies on.
	var merged []RunResult
	for i := 0; i < len(full.PerRun); i++ {
		sh := shards[i%n]
		if i/n >= len(sh.PerRun) {
			t.Fatalf("shard %d too short: %d rows, need index %d", i%n, len(sh.PerRun), i/n)
		}
		merged = append(merged, sh.PerRun[i/n])
	}
	var wantBuf, gotBuf bytes.Buffer
	if err := WriteRunsCSV(&wantBuf, full.PerRun); err != nil {
		t.Fatal(err)
	}
	if err := WriteRunsCSV(&gotBuf, merged); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantBuf.Bytes(), gotBuf.Bytes()) {
		t.Error("round-robin shard reconstruction differs from the unsharded sweep")
	}
	total := 0
	for _, sh := range shards {
		total += len(sh.PerRun)
	}
	if total != len(full.PerRun) {
		t.Errorf("shards cover %d cells, want %d", total, len(full.PerRun))
	}
}

// One invocation runs each distinct simulation once: with an in-memory
// journal attached, as bbrepro attaches one without -csv, the six
// figure sweeps of the paper's evaluation simulate 24 cells per
// benchmark and serve the other 9 from the journal. An in-memory
// journal is not a checkpoint, so the sweep reports no checkpoint age
// and no fsyncs.
func TestSweepsShareSimulations(t *testing.T) {
	h := &Harness{Scale: 1024, Accesses: 2000, Parallel: 2, Journal: ckpt.InMemory(), Obs: obs.NewSweep("all")}
	for _, run := range []func() error{
		func() error { _, err := h.Table2(); return err },
		func() error { _, err := h.Fig6(); return err },
		func() error { _, err := h.Fig7(); return err },
		func() error { _, err := h.Fig8(); return err },
		func() error { _, err := h.MAL(); return err },
		func() error { _, err := h.Overfetch(); return err },
	} {
		if err := run(); err != nil {
			t.Fatal(err)
		}
	}
	n := uint64(len(h.Benchmarks()))
	snap := h.Obs.Snapshot()
	if sims := snap.Done - snap.Resumed; snap.Done != 33*n || sims != 24*n {
		t.Errorf("%d cells done, %d simulated; want %d done, %d simulated", snap.Done, sims, 33*n, 24*n)
	}
	if snap.Checkpointed || snap.JournalFsyncs != 0 {
		t.Errorf("in-memory journal reported checkpoint age (%v) or %d fsyncs", snap.Checkpointed, snap.JournalFsyncs)
	}
}
