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

// faultRate is the frame failures per 1M HBM accesses of the faulted
// cells: high enough that every short cell retires frames.
const faultRate = 200

// Suite sweeps every design (harness.AllDesigns) x every family x
// faults off and on through the lockstep checker, in parallel, with
// per-cell deterministic seeds so any -parallel value produces
// identical results.
type Suite struct {
	Sys        config.System
	OpsPerCell int
	Parallel   int           // worker count; <= 0 = all CPUs
	Timeout    time.Duration // per-cell timeout; 0 = none
}

// Cells expands the matrix in deterministic order.
func (s Suite) Cells() []Cell {
	var cells []Cell
	for _, fault := range []bool{false, true} {
		for _, d := range harness.AllDesigns {
			for _, f := range Families {
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
			sys.Faults = harness.FaultsAtRate(faultRate)
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
	if v := RunOps(mem, ops, Config{}); v != nil {
		shrunk, sv := Shrink(mk, ops, Config{})
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
	return runner.Map(s.Parallel, runner.Policy{Timeout: s.Timeout}, cells,
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
