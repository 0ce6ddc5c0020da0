// Package obs is the fleet-observability layer: it watches a sweep of
// simulation cells from the outside and exposes what it sees while the
// sweep is still running — cells completed and failed, simulated accesses
// per wall-clock second, an ETA, per-design aggregate counters, and the
// per-tier service-latency quantiles — as Prometheus text-format metrics
// on an HTTP endpoint, plus a structured (log/slog) run logger.
//
// Everything in this package is strictly *outside* the simulation:
// nothing here may influence a cell's result (the determinism contract in
// internal/runner), so the package deals only in wall-clock time and
// aggregate snapshots taken at cell completion. A nil *Sweep is the
// disabled state; every method is safe to call on nil, so the harness can
// hook observation points unconditionally.
//
// The exporter is dependency-free: it writes Prometheus exposition format
// version 0.0.4 by hand rather than pulling in a client library.
package obs

import (
	"sync"
	"time"

	"repro/internal/alert"
	"repro/internal/telemetry"
)

// KV is one named aggregate counter reported at cell completion. The
// harness flattens each design's hmm.Counters into a []KV so this package
// needs no knowledge of the simulator's counter set.
type KV struct {
	Name  string
	Value uint64
}

// designAgg accumulates everything observed about one design across the
// cells that completed so far.
type designAgg struct {
	cells    uint64
	failed   uint64
	accesses uint64
	counters map[string]uint64
	order    []string // counter names in first-seen order
	lat      [telemetry.NumTiers]telemetry.Histogram
	hasLat   bool
}

// Sweep tracks the live progress of one experiment fleet. All methods are
// nil-safe and goroutine-safe: worker goroutines report completions
// concurrently while an HTTP handler renders snapshots.
type Sweep struct {
	name string
	now  func() time.Time // injectable clock for deterministic tests

	// OnUpdate, when set before the sweep starts, is called with a fresh
	// snapshot after every cell completion or failure, outside the sweep
	// lock. bbserve uses it to push live progress events to SSE
	// subscribers; the callback must not call back into the Sweep's
	// mutating methods.
	OnUpdate func(Snapshot)

	// Alerts, when set before the sweep starts, is the live SLO monitor
	// whose firing set WritePrometheus renders as bb_alerts_firing /
	// bb_alerts_total. The sweep never writes to it — the harness feeds
	// it — so exposing it here costs nothing when unset.
	Alerts *alert.Monitor

	mu       sync.Mutex
	start    time.Time
	planned  uint64
	done     uint64
	failed   uint64
	accesses uint64 // simulated memory references completed
	designs  map[string]*designAgg
	order    []string // design names in first-seen order
	lastErr  string

	// Resilience counters (the crash-safe execution layer reports these;
	// see internal/ckpt).
	resumed  uint64    // cells served from a checkpoint instead of re-run
	fsyncs   uint64    // checkpoint journal fsyncs issued
	lastCkpt time.Time // wall-clock time of the latest checkpoint append
}

// NewSweep starts tracking a sweep identified by name (usually the
// experiment name, e.g. "fig8").
func NewSweep(name string) *Sweep {
	s := &Sweep{name: name, now: time.Now, designs: make(map[string]*designAgg)}
	s.start = s.now()
	return s
}

// AddPlanned declares n more cells the sweep is about to run. Sweeps call
// it up front so the exporter can report completion ratio and ETA.
func (s *Sweep) AddPlanned(n int) {
	if s == nil || n <= 0 {
		return
	}
	s.mu.Lock()
	s.planned += uint64(n)
	s.mu.Unlock()
}

func (s *Sweep) design(name string) *designAgg {
	d := s.designs[name]
	if d == nil {
		d = &designAgg{counters: make(map[string]uint64)}
		s.designs[name] = d
		s.order = append(s.order, name)
	}
	return d
}

// CellDone records the successful completion of one cell: the design and
// benchmark it ran, the simulated accesses it processed, its final
// aggregate counters, and (when telemetry was enabled) its per-tier
// latency histograms, which merge into the design's running summary.
func (s *Sweep) CellDone(design, bench string, accesses uint64, counters []KV, lat *[telemetry.NumTiers]telemetry.Histogram) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.done++
	s.accesses += accesses
	d := s.design(design)
	d.cells++
	d.accesses += accesses
	for _, kv := range counters {
		if _, seen := d.counters[kv.Name]; !seen {
			d.order = append(d.order, kv.Name)
		}
		d.counters[kv.Name] += kv.Value
	}
	if lat != nil {
		for t := range lat {
			d.lat[t].Merge(&lat[t])
		}
		d.hasLat = true
	}
	_ = bench // identity only matters for failures today; kept for symmetry
	s.notifyAndUnlock()
}

// CellFailed records one failed cell.
func (s *Sweep) CellFailed(design, bench string, err error) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.done++
	s.failed++
	d := s.design(design)
	d.cells++
	d.failed++
	if err != nil {
		s.lastErr = design + "/" + bench + ": " + err.Error()
	}
	s.notifyAndUnlock()
}

// notifyAndUnlock fires the OnUpdate hook (snapshot taken under the
// held lock, callback invoked after release) and unlocks s.mu.
func (s *Sweep) notifyAndUnlock() {
	hook := s.OnUpdate
	var snap Snapshot
	if hook != nil {
		snap = s.snapshotLocked()
	}
	s.mu.Unlock()
	if hook != nil {
		hook(snap)
	}
}

// CellResumed records one cell served from the checkpoint journal
// instead of being re-run. Resumed cells count as done — the sweep's
// completion ratio and ETA cover them — but not toward the design
// aggregates, which summarize only work performed by this invocation.
func (s *Sweep) CellResumed() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.done++
	s.resumed++
	s.notifyAndUnlock()
}

// Checkpointed records a checkpoint append at the current wall-clock
// instant, with fsyncs the journal's fsync count after it; the exporter
// reports the age of the latest append and the highest count seen
// (concurrent appends may report out of order).
func (s *Sweep) Checkpointed(fsyncs uint64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.lastCkpt = s.now()
	s.fsyncs = max(s.fsyncs, fsyncs)
	s.mu.Unlock()
}

// Snapshot is a consistent copy of the sweep's progress totals.
type Snapshot struct {
	Name           string
	Planned        uint64
	Done           uint64 // completed cells, failures included
	Failed         uint64
	Accesses       uint64
	Elapsed        time.Duration
	AccessesPerSec float64
	ETA            time.Duration // 0 when unknown (nothing done or planned)
	LastError      string
	Designs        []string // first-seen order

	// Resilience totals (zero unless the crash-safe layer is active).
	Resumed       uint64        // cells served from the checkpoint journal
	JournalFsyncs uint64        // checkpoint journal fsyncs issued
	CheckpointAge time.Duration // age of the latest checkpoint append
	Checkpointed  bool          // whether any checkpoint append happened
}

// Snapshot returns the sweep's progress totals at this instant.
func (s *Sweep) Snapshot() Snapshot {
	if s == nil {
		return Snapshot{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapshotLocked()
}

func (s *Sweep) snapshotLocked() Snapshot {
	snap := Snapshot{
		Name:      s.name,
		Planned:   s.planned,
		Done:      s.done,
		Failed:    s.failed,
		Accesses:  s.accesses,
		Elapsed:   s.now().Sub(s.start),
		LastError: s.lastErr,
	}
	snap.Designs = append(snap.Designs, s.order...)
	snap.Resumed = s.resumed
	snap.JournalFsyncs = s.fsyncs
	if !s.lastCkpt.IsZero() {
		snap.Checkpointed = true
		snap.CheckpointAge = s.now().Sub(s.lastCkpt)
	}
	if sec := snap.Elapsed.Seconds(); sec > 0 {
		snap.AccessesPerSec = float64(s.accesses) / sec
	}
	if s.done > 0 && s.planned > s.done {
		perCell := snap.Elapsed / time.Duration(s.done)
		snap.ETA = perCell * time.Duration(s.planned-s.done)
	}
	return snap
}
