package check

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/config"
	"repro/internal/faults"
	"repro/internal/harness"
	"repro/internal/hmm"
	"repro/internal/runner"
)

// Cell is one cell of the differential sweep: a design, a workload
// family, and whether HBM fault injection is active.
type Cell struct {
	Design config.Design
	Family Family
	Faults bool
}

// Result is the outcome of one cell. Seed reproduces the cell's workload
// (GenOps) and, folded with stream 1, its fault injector; Repro is the
// shrunk failing op sequence when the cell violated.
type Result struct {
	Cell
	Seed      uint64
	Ops       int
	Violation *Violation
	Repro     string
}

// Suite sweeps designs x families x fault modes through the lockstep
// checker, in parallel, with per-cell deterministic seeds so any
// -parallel value produces identical results.
type Suite struct {
	Sys        config.System
	Designs    []config.Design
	Families   []Family
	OpsPerCell int
	Every      int           // full-audit period; 0 = checker default
	WithFaults bool          // also run every design x family with faults on
	FaultRate  float64       // frame failures per 1M HBM accesses when faulting
	Parallel   int           // worker count; <= 0 = all CPUs
	Timeout    time.Duration // per-cell timeout; 0 = none
}

// DefaultSuite is the full matrix at the given scale: every design, every
// family, faults off and on.
func DefaultSuite(sys config.System, opsPerCell int) Suite {
	return Suite{
		Sys:        sys,
		Designs:    harness.AllDesigns,
		Families:   Families,
		OpsPerCell: opsPerCell,
		WithFaults: true,
		FaultRate:  200,
	}
}

// Cells expands the matrix in deterministic order.
func (s Suite) Cells() []Cell {
	var cells []Cell
	modes := []bool{false}
	if s.WithFaults {
		modes = append(modes, true)
	}
	for _, fault := range modes {
		for _, d := range s.Designs {
			for _, f := range s.Families {
				cells = append(cells, Cell{Design: d, Family: f, Faults: fault})
			}
		}
	}
	return cells
}

// CellSeed is the deterministic base seed of a cell, derived purely from
// its identity. Workload ops use SeedFold(seed, 0); the fault injector
// uses SeedFold(seed, 1).
func CellSeed(c Cell) uint64 {
	mode := "faults=off"
	if c.Faults {
		mode = "faults=on"
	}
	return runner.Seed("check", string(c.Design), string(c.Family), mode)
}

// factory builds a fresh design instance for cell c, reattaching an
// identically seeded fault injector, so replays (and shrink candidates)
// start from the same initial state.
func (s Suite) factory(c Cell, seed uint64) Factory {
	return func() (hmm.MemSystem, error) {
		sys := s.Sys
		if c.Faults {
			sys.Faults = harness.FaultsAtRate(s.FaultRate)
		}
		mem, err := harness.Build(c.Design, sys)
		if err != nil {
			return nil, err
		}
		if c.Faults {
			dev := mem.Devices()
			dev.AttachFaults(faults.New(sys.Faults, dev.Geom.HBMPages(),
				runner.SeedFold(seed, 1)))
		}
		return mem, nil
	}
}

// RunCell checks one cell: generate the workload, run it through the
// lockstep checker, and on violation shrink to a minimal repro.
func (s Suite) RunCell(c Cell) (Result, error) {
	seed := CellSeed(c)
	res := Result{Cell: c, Seed: seed, Ops: s.OpsPerCell}
	ops := GenOps(c.Family, runner.SeedFold(seed, 0), s.OpsPerCell, s.Sys)
	mk := s.factory(c, seed)
	mem, err := mk()
	if err != nil {
		return res, err
	}
	cfg := Config{Every: s.Every}
	if v := RunOps(mem, ops, cfg); v != nil {
		shrunk, sv := Shrink(mk, ops, cfg)
		if sv == nil { // flaky shrink would mean nondeterminism; keep original
			sv = v
			shrunk = ops[:v.OpIndex+1]
		}
		res.Violation = sv
		res.Repro = EncodeOps(shrunk)
	}
	return res, nil
}

// Run sweeps all cells in parallel. Results come back in Cells() order
// regardless of worker count.
func (s Suite) Run() ([]Result, error) {
	cells := s.Cells()
	return runner.MapTimeout(s.Parallel, s.Timeout, cells,
		func(_ int, c Cell) (Result, error) { return s.RunCell(c) })
}

// Violations filters results down to failing cells.
func Violations(results []Result) []Result {
	var out []Result
	for _, r := range results {
		if r.Violation != nil {
			out = append(out, r)
		}
	}
	return out
}

// Table renders results as a deterministic grep-friendly report: one
// "check design=... family=... faults=... ops=... violations=..." line
// per cell, plus seed/repro detail lines for failures.
func Table(results []Result) string {
	var sb strings.Builder
	for _, r := range results {
		mode := "off"
		if r.Faults {
			mode = "on"
		}
		nviol := 0
		if r.Violation != nil {
			nviol = 1
		}
		fmt.Fprintf(&sb, "check design=%-10s family=%-6s faults=%-3s ops=%d violations=%d\n",
			r.Design, r.Family, mode, r.Ops, nviol)
		if r.Violation != nil {
			fmt.Fprintf(&sb, "  seed=%#x %v\n  repro: %s\n", r.Seed, r.Violation, r.Repro)
		}
	}
	return sb.String()
}
