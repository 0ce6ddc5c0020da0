package obs

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// fixedSweep builds a sweep with a deterministic clock and a known state,
// shared by the golden exposition test and the snapshot tests.
func fixedSweep() *Sweep {
	t0 := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	now := t0
	s := &Sweep{name: "fig8", designs: make(map[string]*designAgg)}
	s.now = func() time.Time { return now }
	s.start = t0
	s.AddPlanned(8)
	var lat [telemetry.NumTiers]telemetry.Histogram
	lat[telemetry.TierCHBM].Observe(40)
	lat[telemetry.TierCHBM].Observe(44)
	lat[telemetry.TierCHBM].Observe(300)
	lat[telemetry.TierDRAM].Observe(190)
	s.CellDone("bumblebee", "mcf", 1000, []KV{
		{Name: "served_hbm", Value: 700},
		{Name: "served_dram", Value: 300},
		{Name: "mode_switches", Value: 12},
	}, &lat)
	s.CellDone("bumblebee", "xz", 1000, []KV{
		{Name: "served_hbm", Value: 600},
		{Name: "served_dram", Value: 400},
	}, nil)
	s.CellDone("alloy", "mcf", 1000, []KV{
		{Name: "served_hbm", Value: 500},
		{Name: "served_dram", Value: 500},
	}, nil)
	s.CellFailed("alloy", "xz", errors.New("boom"))
	// Resilience events: one retry, one cell resumed from the journal,
	// an fsync, and a checkpoint append 6 s before the snapshot instant.
	s.CellRetried()
	s.CellResumed()
	now = t0.Add(4 * time.Second)
	s.Checkpointed(1)
	now = t0.Add(10 * time.Second)
	return s
}

// TestPrometheusGolden pins the exposition body byte-for-byte: metric
// families in fixed order, designs and counters sorted, so a scrape of a
// given sweep state is reproducible.
func TestPrometheusGolden(t *testing.T) {
	s := fixedSweep()
	var b strings.Builder
	if err := s.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	goldenPath := filepath.Join("testdata", "metrics.golden.txt")
	want, err := os.ReadFile(goldenPath)
	if os.IsNotExist(err) || os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", goldenPath)
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("exposition body differs from golden.\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestSnapshotProgress(t *testing.T) {
	s := fixedSweep()
	snap := s.Snapshot()
	// 3 done + 1 failed + 1 resumed from the journal.
	if snap.Planned != 8 || snap.Done != 5 || snap.Failed != 1 {
		t.Fatalf("planned/done/failed = %d/%d/%d, want 8/5/1", snap.Planned, snap.Done, snap.Failed)
	}
	if snap.Accesses != 3000 {
		t.Fatalf("accesses = %d, want 3000", snap.Accesses)
	}
	if snap.AccessesPerSec != 300 {
		t.Fatalf("accesses/sec = %g, want 300 (3000 over 10s)", snap.AccessesPerSec)
	}
	// 5 cells took 10 s; 3 remain -> ETA 6 s.
	if snap.ETA != 6*time.Second {
		t.Fatalf("ETA = %v, want 6s", snap.ETA)
	}
	if !strings.Contains(snap.LastError, "alloy/xz") {
		t.Fatalf("last error %q does not name the failed cell", snap.LastError)
	}
	if snap.Retried != 1 || snap.Resumed != 1 || snap.JournalFsyncs != 1 {
		t.Fatalf("retried/resumed/fsyncs = %d/%d/%d, want 1/1/1",
			snap.Retried, snap.Resumed, snap.JournalFsyncs)
	}
	if !snap.Checkpointed || snap.CheckpointAge != 6*time.Second {
		t.Fatalf("checkpoint age = %v (checkpointed=%v), want 6s", snap.CheckpointAge, snap.Checkpointed)
	}
	// A concurrent append that read an older journal count reports
	// late; the counter must not go backwards.
	s.Checkpointed(0)
	if got := s.Snapshot().JournalFsyncs; got != 1 {
		t.Fatalf("fsyncs = %d after a stale report, want 1", got)
	}
}

// TestNoCheckpointAge: a sweep that never checkpointed must not report a
// bogus age (the exporter renders -1).
func TestNoCheckpointAge(t *testing.T) {
	s := NewSweep("plain")
	if snap := s.Snapshot(); snap.Checkpointed || snap.CheckpointAge != 0 {
		t.Fatalf("unexpected checkpoint state: %+v", snap)
	}
	var b strings.Builder
	if err := s.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `bb_sweep_checkpoint_age_seconds{sweep="plain"} -1`) {
		t.Fatalf("exposition missing -1 checkpoint age:\n%s", b.String())
	}
}

// TestNilSweepSafe: the harness calls observation points unconditionally,
// so every method must be a no-op on a nil sweep.
func TestNilSweepSafe(t *testing.T) {
	var s *Sweep
	s.AddPlanned(3)
	s.CellDone("d", "b", 1, nil, nil)
	s.CellFailed("d", "b", errors.New("x"))
	s.CellRetried()
	s.CellResumed()
	s.Checkpointed(1)
	if snap := s.Snapshot(); snap.Done != 0 {
		t.Fatalf("nil sweep snapshot reports done=%d", snap.Done)
	}
	var b strings.Builder
	if err := s.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "no sweep active") {
		t.Fatalf("nil sweep exposition = %q", b.String())
	}
}

// TestConcurrentCellDone exercises the tracker under the race detector
// the way a parallel sweep drives it.
func TestConcurrentCellDone(t *testing.T) {
	s := NewSweep("race")
	s.AddPlanned(64)
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s.CellDone("bumblebee", "mcf", 10, []KV{{Name: "served_hbm", Value: 1}}, nil)
			var b strings.Builder
			_ = s.WritePrometheus(&b)
			_ = i
		}(i)
	}
	wg.Wait()
	snap := s.Snapshot()
	if snap.Done != 64 || snap.Accesses != 640 {
		t.Fatalf("done=%d accesses=%d, want 64/640", snap.Done, snap.Accesses)
	}
}
