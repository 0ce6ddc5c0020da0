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
// stable hash of the design and benchmark names, so a sweep's output is
// bit-identical at any Parallel setting.
//
// Cells that replay the same trace through the same caches are filtered
// once and fanned out (see fanout.go): the core model splits at the LLC
// (cpu.Filter, cpu.Core), one producer decodes the trace and walks the
// SRAM hierarchy, and every cell's core replays the post-LLC chunks into
// its own design. ReplaySweep groups all its designs, Fig6 all nine
// configurations of a benchmark, and Fig7 the variants that keep
// Bumblebee's name (and so its trace seed); every other sweep still seeds
// each design's trace separately, so its cells run alone. Grouping is
// invisible in the results: every cell's bytes equal its solo run.
package harness

import (
	"fmt"
	"log/slog"
	"sync"
	"time"

	"repro/internal/alert"
	"repro/internal/cache"
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
	// overruns it fails with a runner.CellError instead of hanging the
	// sweep. <= 0 (the default) disables the deadline. Cells that share
	// a trace run as one group (see fanout.go), so a grouped cell's clock
	// runs while the whole group shares the workers.
	CellTimeout time.Duration

	// TelemetryEpoch enables per-run telemetry (latency histograms, event
	// tracing, and the counter time-series): every run gets a probe that
	// snapshots its counters every TelemetryEpoch demand accesses. 0 (the
	// default) disables telemetry entirely — designs see a nil probe.
	TelemetryEpoch uint64
	// TraceDepth is the event ring capacity per run; <= 0 picks
	// telemetry.DefaultTraceDepth. Only meaningful with TelemetryEpoch > 0.
	TraceDepth int

	// Retry is the per-cell retry budget for transient failures —
	// timeouts and errors marked runner.Transient. Permanent failures
	// (model invariant violations) never retry: re-running a
	// deterministic cell can only reproduce them. The zero value
	// disables retries.
	Retry runner.Retry

	// Interrupt, when closed, drains every sweep gracefully: in-flight
	// cells finish (and checkpoint), unstarted cells never run, and the
	// sweep returns an error matching runner.ErrInterrupted so callers
	// can exit with the resumable status instead of failing. A group in
	// flight finishes all its cells; those the sweep had not reached are
	// not checkpointed.
	Interrupt <-chan struct{}

	// Journal is the checkpoint journal (see internal/ckpt): when set,
	// every completed cell is recorded durably and cells completed by a
	// previous invocation are served from the journal instead of re-run.
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

// accBufPool holds trace ingestion buffers (see cpu.WithAccessBuffer),
// stored by pointer so Get/Put do not themselves allocate.
var accBufPool = sync.Pool{New: func() any {
	buf := make([]trace.Access, cpu.AccessBufferSize())
	return &buf
}}

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

// System returns the scaled Table I configuration: memory capacities and
// the LLC shrink by Scale (preserving the LLC:HBM:DRAM ratios); the L1
// and L2 shrink to small fixed sizes that keep their filtering role.
func (h *Harness) System() config.System {
	sys := config.Default()
	if h.Scale <= 1 {
		return sys
	}
	sys.HBM.CapacityBytes /= h.Scale
	sys.DRAM.CapacityBytes /= h.Scale
	for i := range sys.Caches {
		sz := sys.Caches[i].SizeBytes / h.Scale
		min := uint64(sys.Caches[i].Ways) * sys.Caches[i].LineBytes * 4
		if sz < min {
			sz = min
		}
		sys.Caches[i].SizeBytes = sz
	}
	return sys
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

// Run simulates one benchmark on one memory system built for sys.
//
// When the benchmark's profile carries no explicit seed, the trace
// generator is seeded from runner.Seed(design, benchmark) — the sweep
// determinism rule: a cell's stream depends only on what the cell *is*,
// never on when or where it ran.
func (h *Harness) Run(sys config.System, mem hmm.MemSystem, b trace.Benchmark) (RunResult, error) {
	p := b.Profile
	if p.Seed == 0 {
		p.Seed = runner.Seed(mem.Name(), p.Name)
	}
	st, err := h.synthetic(p)()
	if err != nil {
		return RunResult{}, err
	}
	return h.runStream(sys, mem, p.Name, st, p.Seed)
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

// RunStream simulates one memory system built for sys over an
// externally supplied access stream — a replayed trace file (see
// internal/tracecodec) rather than a synthetic generator — the way Run
// simulates a benchmark. When h.Accesses > 0 the replay is capped at
// that many accesses; otherwise the trace's length defines the run.
// The same determinism contract applies: the result is a pure function
// of (design, stream), so identical trace bytes produce identical
// results at any Parallel setting.
func (h *Harness) RunStream(sys config.System, mem hmm.MemSystem, bench string, st trace.Stream) (RunResult, error) {
	return h.runStream(sys, mem, bench, h.capped(st), 0)
}

// capped limits a recorded trace to h.Accesses accesses; 0 leaves it
// whole.
func (h *Harness) capped(st trace.Stream) trace.Stream {
	if h.Accesses == 0 {
		return st
	}
	return &trace.Limit{S: st, N: h.Accesses}
}

// replayCell describes one design's replay of a recorded trace: opened
// by open and capped at h.Accesses.
func (h *Harness) replayCell(design config.Design, bench string, open func() (trace.Stream, error)) shared {
	sys := h.System()
	return shared{
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
// called once per group — plus once per cell a transient failure
// retries alone — and must return a fresh reader over the same trace
// bytes per call (reopen the file). It is called from worker goroutines
// and must be safe for concurrent use.
func (h *Harness) ReplaySweep(designs []config.Design, bench string, open func() (trace.Stream, error)) ([]RunResult, error) {
	cells := make([]cell, len(designs))
	for i, d := range designs {
		cells[i] = cell{
			ID:   cellID("replay", string(d), bench),
			Seed: runner.Seed(string(d), bench),
		}
	}
	return sweepShared(h, cells,
		func(i int) shared { return h.replayCell(designs[i], bench, open) },
		func(i int, r RunResult, err error) (RunResult, error) {
			if err != nil {
				return RunResult{}, err
			}
			h.log("replay", "design", r.Design, "bench", bench, "ipc", r.CPU.IPC())
			return r, nil
		})
}

// runStream is the single-consumer path shared by Run, RunStream and
// every cell that replays its trace alone: it builds the cache hierarchy
// and the design side (see newSim), runs cpu.Run — the hierarchy and
// core halves composed — over the stream, and assembles the result. seed
// is recorded in failure messages for replayability (0 for external
// traces, whose identity is the trace file itself).
func (h *Harness) runStream(sys config.System, mem hmm.MemSystem, bench string, st trace.Stream, seed uint64) (RunResult, error) {
	hier, err := cache.NewHierarchy(sys.Caches)
	if err != nil {
		return RunResult{}, err
	}
	sim := h.newSim(sys, mem, bench, seed)
	// Trace ingestion buffers are pooled across cells (workers return them
	// when the cell finishes), so sweeps do not allocate one per cell. The
	// buffer is scratch space fully rewritten each batch — sharing cannot
	// leak state between cells.
	accBuf := accBufPool.Get().(*[]trace.Access)
	res, err := cpu.Run(sys.Core, hier, mem, st, cpu.WithAccessBuffer(*accBuf))
	accBufPool.Put(accBuf)
	return sim.finish(res, err)
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
	// Fault injection follows the same cell-identity seeding rule: the
	// injector's schedule depends only on (design, benchmark) plus the
	// configured fault seed, never on scheduling. faults.New returns nil
	// when injection is disabled, leaving the device paths untouched.
	if sys.Faults.Enabled {
		dev := mem.Devices()
		dev.AttachFaults(faults.New(sys.Faults, dev.Geom.HBMPages(),
			runner.Seed("faults", mem.Name(), bench)))
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

// RunDesign builds the named design and runs one benchmark on it.
func (h *Harness) RunDesign(design config.Design, b trace.Benchmark) (RunResult, error) {
	sys := h.System()
	mem, err := Build(design, sys)
	if err != nil {
		return RunResult{}, err
	}
	return h.Run(sys, mem, b)
}

// baselineIPC runs the no-HBM baseline for every benchmark once and
// caches the IPCs and traffic used for normalization.
type baseline struct {
	ipc   map[string]float64
	bytes map[string]uint64 // DRAM traffic of the no-HBM run
	pj    map[string]float64
}

func (h *Harness) runBaseline(bs []trace.Benchmark) (*baseline, error) {
	cells := make([]cell, len(bs))
	for i, b := range bs {
		cells[i] = cell{
			ID:   cellID("baseline", string(config.DesignNoHBM), b.Profile.Name),
			Seed: runner.Seed(string(config.DesignNoHBM), b.Profile.Name),
		}
	}
	// The baseline is normalization input for every design's rows, so it
	// always runs in full — sharding partitions only the design matrix.
	hb := *h
	hb.Shard = runner.Shard{}
	runs, err := sweepCells(&hb, cells, 1, func(i int) (RunResult, error) {
		b := bs[i]
		r, err := h.RunDesign(config.DesignNoHBM, b)
		if err != nil {
			return RunResult{}, fmt.Errorf("baseline %s: %w", b.Profile.Name, err)
		}
		h.log("baseline", "bench", b.Profile.Name, "ipc", r.CPU.IPC(), "mpki", r.CPU.MPKI())
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	out := &baseline{
		ipc:   make(map[string]float64),
		bytes: make(map[string]uint64),
		pj:    make(map[string]float64),
	}
	for i, r := range runs {
		name := bs[i].Profile.Name
		out.ipc[name] = r.CPU.IPC()
		out.bytes[name] = r.DRAMBytes
		out.pj[name] = r.Energy.TotalPJ()
	}
	return out, nil
}
