// Package harness defines one experiment per table and figure of the
// paper's evaluation: it builds systems, runs the Table II workloads on
// each design, normalizes results against the no-HBM baseline, and prints
// the same rows and series the paper reports.
//
// Experiments run on a capacity-scaled system (default 1/128 of Table I:
// HBM 8 MiB, DRAM 80 MiB, LLC 64 KiB) with workload footprints scaled by
// the same factor, so every footprint-to-capacity ratio — and therefore
// the caching, migration and footprint-pressure behaviour — matches the
// full-size machine while runs finish in seconds.
//
// Every sweep fans its (design, benchmark, config) matrix out across a
// bounded pool of worker goroutines (see internal/runner). Results are
// assembled in matrix order and each cell seeds its trace generator from a
// stable hash of the benchmark name alone, so a sweep's output is
// bit-identical at any Parallel setting and every design compared on a
// benchmark runs the same trace. Cells are deterministic, so each runs
// once: a cell that fails or overruns CellTimeout is reported by its cell
// index and never re-run. Fig6, Fig7, Fig8 and mix run their no-HBM
// baseline as the first row of their own sweep.
//
// Every simulation of one design on one trace is a cell described by a
// shared spec (see fanout.go) and run by a fan-out group: the core model
// splits at the LLC (cpu.Filter, cpu.Core), one producer decodes the
// trace and walks the SRAM hierarchy, and every member cell's core
// replays the post-LLC chunks into its own design. Cells whose trace and
// caches are equal share one group — ReplaySweep all its designs, and
// every figure all the cells of one benchmark: Fig8 its no-HBM baseline
// and six designs, Fig6 the baseline and nine configurations, Fig7 the
// baseline and ten variants, figfault every (design, rate), MAL its
// SRAM/HBM metadata pair. Run, RunStream and a lone cell run as a
// one-member group. The workers take cells group by group, so they share
// one group's designs rather than each holding its own. Grouping is
// invisible in the results: every cell's bytes equal its solo run.
package harness

import (
	"fmt"
	"log/slog"
	"time"

	"repro/internal/alert"
	"repro/internal/ckpt"
	"repro/internal/config"
	"repro/internal/cpu"
	"repro/internal/energy"
	"repro/internal/faults"
	"repro/internal/hmm"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Harness carries the experiment-wide knobs.
type Harness struct {
	Scale    uint64 // capacity scale factor vs Table I
	Accesses uint64 // memory references simulated per benchmark run
	Parallel int    // worker goroutines per sweep; <= 0 means one per CPU

	// Log is the structured run logger (per-cell progress records); nil
	// (the default) is silent. Handlers serialize concurrent records, so
	// workers log as cells finish — record order varies across runs, only
	// the assembled results are deterministic.
	Log *slog.Logger

	// Obs is the live sweep tracker served over /metrics; nil (the
	// default) disables observation. Sweeps declare their cells up front
	// and Run reports each completion — strictly after the cell's result
	// is final, so observation cannot perturb determinism.
	Obs *obs.Sweep

	// CellTimeout is the per-cell deadline for every sweep; a cell that
	// overruns it fails once, with a runner.CellError naming its index,
	// instead of hanging the sweep. Cells are deterministic, so the cell
	// is never re-run. <= 0 (the default) disables the deadline. Cells
	// that share a trace run as one group (see fanout.go), so a grouped
	// cell's clock runs while the whole group shares the workers, and
	// the abandoned cell's group runs on to completion.
	CellTimeout time.Duration

	// TelemetryEpoch enables per-run telemetry (latency histograms, event
	// tracing, and the counter time-series): every run gets a probe that
	// snapshots its counters every TelemetryEpoch demand accesses. 0 (the
	// default) disables telemetry entirely — designs see a nil probe.
	TelemetryEpoch uint64
	// TraceDepth is the event ring capacity per run; <= 0 picks
	// telemetry.DefaultTraceDepth. Only meaningful with TelemetryEpoch > 0.
	TraceDepth int

	// Interrupt, when closed, drains every sweep gracefully: in-flight
	// cells finish (and checkpoint), unstarted cells never run, and the
	// sweep returns an error matching runner.ErrInterrupted so callers
	// can exit with the resumable status instead of failing. A group in
	// flight finishes all its cells; those the sweep had not reached are
	// not checkpointed.
	Interrupt <-chan struct{}

	// Journal is the checkpoint journal (see internal/ckpt): when set,
	// every completed cell is recorded and cells it already holds — from
	// a previous invocation, or from an earlier sweep that ran the same
	// simulation (see contentKey) — are served from it instead of re-run.
	// The determinism contract is what makes the substitution sound — a
	// cell's result depends only on its identity, so replayed bytes and
	// re-computed bytes are identical.
	Journal *ckpt.Journal

	// Shard restricts sweeps to the cells this process owns (see
	// runner.Shard); the zero value owns everything. Shards partition
	// the flattened cell index space, so N shard runs cover each sweep
	// exactly once and `bbreport merge` can reassemble the unsharded
	// cell order.
	Shard runner.Shard

	// Alerts is the live SLO monitor (see internal/alert): when set,
	// every run feeds it epoch samples as telemetry fires and a final
	// sample at completion, so rule evaluation tracks the sweep in
	// flight. nil (the default) disables alerting at nil-check cost.
	// Like Obs and Spans, the monitor lives strictly outside the
	// simulation and never influences results.
	Alerts *alert.Monitor

	// Spans is the request-scoped span collector: when bbserve executes a
	// job it hands its per-job harness copy the job's trace here, and the
	// harness records one simulate span per design cell (plus checkpoint
	// append spans when a journal is attached) under SpanParent. nil (the
	// default) disables tracing at nil-check cost — spans, like Obs, live
	// strictly outside the simulation and never influence results.
	Spans      *obs.JobTrace
	SpanParent obs.SpanID
}

// New returns a harness at the default reproduction scale.
func New() *Harness {
	return &Harness{Scale: 128, Accesses: 1_500_000}
}

// workers returns the sweep's worker-pool size.
func (h *Harness) workers() int {
	if h.Parallel > 0 {
		return h.Parallel
	}
	return runner.DefaultWorkers()
}

// System returns the Table I configuration scaled by h.Scale (see
// config.System.Scaled). At Scale 128 the 1 KiB L1D and 2 KiB L2 filter
// little: over 500 000 accesses of each Table II benchmark the L1D hits
// 0.0-3.9% of accesses and the L2 12-21% of its lookups (dirty L1
// evictions included).
func (h *Harness) System() config.System {
	return config.Default().Scaled(h.Scale)
}

// Benchmarks returns the Table II set scaled to the harness.
func (h *Harness) Benchmarks() []trace.Benchmark {
	bs := trace.TableII()
	out := make([]trace.Benchmark, len(bs))
	for i, b := range bs {
		out[i] = b.Scale(h.Scale)
	}
	return out
}

// RunResult is one (design, benchmark) simulation outcome.
type RunResult struct {
	Design string
	Bench  string

	CPU      cpu.Result
	Counters hmm.Counters
	Energy   energy.Breakdown

	HBMBytes  uint64 // total HBM bus traffic
	DRAMBytes uint64 // total off-chip DRAM bus traffic

	// Telemetry is the run's time-resolved record; nil unless the harness
	// ran with TelemetryEpoch > 0.
	Telemetry *RunTelemetry
}

// Run simulates one benchmark on mem, a memory system built for sys, as
// a one-member group. The trace seed follows the sweep rule (see
// syntheticCell): it names the benchmark alone, so Run reproduces the
// matching cell of any sweep, and every design Run drives on b sees the
// same trace.
func (h *Harness) Run(sys config.System, mem hmm.MemSystem, b trace.Benchmark) (RunResult, error) {
	s := h.syntheticCell(config.Design(mem.Name()), sys, b)
	s.build = built(mem)
	return h.runAlone(s)
}

// synthetic returns a source of p's generated stream, capped at
// h.Accesses.
func (h *Harness) synthetic(p trace.Profile) func() (trace.Stream, error) {
	return func() (trace.Stream, error) {
		gen, err := trace.NewSynthetic(p)
		if err != nil {
			return nil, err
		}
		return &trace.Limit{S: gen, N: h.Accesses}, nil
	}
}

// RunStream simulates mem, a memory system built for sys, over an
// externally supplied access stream — a replayed trace file (see
// internal/tracecodec) rather than a synthetic generator — the way Run
// simulates a benchmark. When h.Accesses > 0 the replay is capped at
// that many accesses; otherwise the trace's length defines the run.
// The same determinism contract applies: the result is a pure function
// of (design, stream), so identical trace bytes produce identical
// results at any Parallel setting.
func (h *Harness) RunStream(sys config.System, mem hmm.MemSystem, bench string, st trace.Stream) (RunResult, error) {
	s := h.replayCell(config.Design(mem.Name()), bench, sys, func() (trace.Stream, error) { return st, nil })
	s.build = built(mem)
	return h.runAlone(s)
}

// capped limits a recorded trace to h.Accesses accesses; 0 leaves it
// whole.
func (h *Harness) capped(st trace.Stream) trace.Stream {
	if h.Accesses == 0 {
		return st
	}
	return &trace.Limit{S: st, N: h.Accesses}
}

// replayCell describes one design's replay of a recorded trace on sys:
// opened by open and capped at h.Accesses. A recording carries no seed;
// its identity is the trace itself, so the cell is named, not hashed:
// replay/<design>/<bench>.
func (h *Harness) replayCell(design config.Design, bench string, sys config.System, open func() (trace.Stream, error)) shared {
	return shared{
		id:  cellID("replay", string(design), bench),
		key: cellID("replay", bench, fmt.Sprint(sys.Caches)),
		open: func() (trace.Stream, error) {
			st, err := open()
			if err != nil {
				return nil, err
			}
			return h.capped(st), nil
		},
		sys: sys, design: design, build: builder(design, sys), bench: bench,
	}
}

// ReplaySweep runs one recorded trace against every design in designs,
// fanning out across the harness worker pool like every other sweep.
// All designs share one filtered stream (see sweepShared), so open is
// called once per group and must return a fresh reader over the same
// trace bytes per call (reopen the file). It is called from worker
// goroutines and must be safe for concurrent use.
func (h *Harness) ReplaySweep(designs []config.Design, bench string, open func() (trace.Stream, error)) ([]RunResult, error) {
	sys := h.System()
	return sweepShared(h, len(designs),
		func(i int) shared { return h.replayCell(designs[i], bench, sys, open) },
		func(i int, r RunResult, err error) error {
			if err == nil {
				h.log("replay", "design", r.Design, "bench", bench, "ipc", r.CPU.IPC())
			}
			return err
		})
}

// sim is the design side of one cell: its memory system with fault
// injection, telemetry and the live alert feed attached, ready to
// consume a post-LLC stream.
type sim struct {
	h      *Harness
	sys    config.System
	mem    hmm.MemSystem
	bench  string
	seed   uint64
	probe  *telemetry.Probe
	runTel *RunTelemetry
	cm     *alert.CellMon
}

// newSim attaches fault injection, telemetry and the alert feed to mem.
func (h *Harness) newSim(sys config.System, mem hmm.MemSystem, bench string, seed uint64) *sim {
	s := &sim{h: h, sys: sys, mem: mem, bench: bench, seed: seed}
	// Fault injection follows the trace's pairing rule: the injector is
	// seeded from runner.Seed("faults", benchmark) alone, never from the
	// design or the scheduling. Designs compared on one benchmark
	// therefore see the same fault schedule, defined as the same seed
	// drawn over each design's own HBM page space (dev.Geom.HBMPages():
	// Hybrid2's covers only its POM region, so its frames are not the
	// other designs'). faults.New returns nil when injection is
	// disabled, leaving the device paths untouched.
	if sys.Faults.Enabled {
		dev := mem.Devices()
		dev.AttachFaults(faults.New(sys.Faults, dev.Geom.HBMPages(),
			runner.Seed("faults", bench)))
	}
	// Telemetry is per-cell: each run owns one probe, and everything it
	// records is a pure function of the cell's access stream, so the
	// assembled sweep output stays byte-identical at any Parallel setting.
	s.cm = h.Alerts.StartCell(mem.Name(), bench)
	if h.TelemetryEpoch > 0 {
		s.probe = telemetry.NewProbe(h.TelemetryEpoch, h.TraceDepth)
		s.runTel = &RunTelemetry{Epoch: h.TelemetryEpoch, FreqMHz: sys.Core.FreqMHz}
		reporter, _ := mem.(hmm.StateReporter)
		s.probe.OnEpoch = func(access, cycle uint64) {
			pt := TimelinePoint{Access: access, Cycle: cycle, Counters: mem.Counters()}
			if reporter != nil {
				pt.State = reporter.TelemetryState()
				pt.HasState = true
			}
			s.runTel.Timeline = append(s.runTel.Timeline, pt)
			s.cm.ObserveEpoch(epochSample(pt))
		}
		mem.Devices().AttachTelemetry(s.probe)
	}
	return s
}

// finish assembles the cell's result from its core's outcome.
func (s *sim) finish(res cpu.Result, err error) (RunResult, error) {
	h, mem, bench := s.h, s.mem, s.bench
	if err != nil {
		// Include the cell's replay identity: the seed pins the workload
		// and fault streams, the epoch pins the sampling cadence, so the
		// failure reproduces from the log alone.
		h.Obs.CellFailed(mem.Name(), bench, err)
		return RunResult{}, fmt.Errorf("%s/%s (%s): %w",
			mem.Name(), bench, runner.CellInfo(s.seed, h.TelemetryEpoch), err)
	}
	if s.runTel != nil {
		s.runTel.Lat = s.probe.Lat
		s.runTel.Events = s.probe.Tracer.Events()
		s.runTel.EventsTotal = s.probe.Tracer.Total()
		s.runTel.EventsDropped = s.probe.Tracer.Dropped()
	}
	dev := mem.Devices()
	hbm, ddr := dev.HBM.Stats(), dev.DRAM.Stats()
	e := energy.FromStats(hbm, ddr).WithStatic(
		dev.HBM.BackgroundEnergyPJ(res.Cycles),
		dev.DRAM.BackgroundEnergyPJ(res.Cycles))
	var lat *[telemetry.NumTiers]telemetry.Histogram
	if s.probe != nil {
		lat = &s.probe.Lat
	}
	cnt := mem.Counters()
	h.obsDone(mem.Name(), bench, res.Accesses, cnt, lat)
	rr := RunResult{
		Design:    mem.Name(),
		Bench:     bench,
		CPU:       res,
		Counters:  cnt,
		Energy:    e,
		HBMBytes:  hbm.TotalBytes(),
		DRAMBytes: ddr.TotalBytes(),
		Telemetry: s.runTel,
	}
	// The final feed evaluates the full rule set over the completed
	// cell — latency summaries included — so the monitor's firing set
	// for this cell is exactly what post-hoc analysis computes.
	s.cm.Done(runSample(rr), latencySamples(rr))
	return rr, nil
}

// row is one row of a figure's row × benchmark matrix: a design on a
// system, and the experiment and label that name it in logs and errors.
type row struct {
	exp, label string
	design     config.Design
	sys        config.System
}

// baselineRow is the no-HBM row the figures normalize by: its run of a
// benchmark is the denominator of that benchmark's IPC, traffic and
// energy.
func (h *Harness) baselineRow() row {
	return row{exp: "baseline", label: string(config.DesignNoHBM), design: config.DesignNoHBM, sys: h.System()}
}

// speedups returns each run's IPC over its benchmark's no-HBM run in
// base: the per-benchmark speedups a figure averages.
func speedups(base, runs []RunResult) []float64 {
	out := make([]float64, len(runs))
	for bi, r := range runs {
		out[bi] = r.CPU.IPC() / base[bi].CPU.IPC()
	}
	return out
}

// sweepRows runs every row on every benchmark of bs as one sweep and
// returns the runs by [row][bench]. Every row of a benchmark runs the
// same trace (see syntheticCell), so a benchmark's rows that share
// their caches are one group and its trace is filtered once.
func (h *Harness) sweepRows(rows []row, bs []trace.Benchmark) ([][]RunResult, error) {
	flat, err := sweepShared(h, len(rows)*len(bs),
		func(i int) shared {
			r := rows[i/len(bs)]
			return h.syntheticCell(r.design, r.sys, bs[i%len(bs)])
		},
		func(i int, r RunResult, err error) error {
			row, b := rows[i/len(bs)], bs[i%len(bs)].Profile.Name
			if err != nil {
				return fmt.Errorf("%s %s/%s: %w", row.exp, row.label, b, err)
			}
			h.log(row.exp, "row", row.label, "bench", b,
				"ipc", r.CPU.IPC(), "hbm_bytes", r.HBMBytes, "dram_bytes", r.DRAMBytes)
			return nil
		})
	return byRow(flat, len(rows), len(bs)), err
}
