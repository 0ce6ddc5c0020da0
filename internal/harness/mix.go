package harness

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/config"
	"repro/internal/cpu"
	"repro/internal/runner"
	"repro/internal/trace"
)

// Table I describes a multi-core machine (private L1/L2 per core, one
// shared LLC); the paper evaluates single-program slices. As an
// extension, the mix experiment co-runs four workloads — one per core, in
// disjoint address-space slices — on each memory design and reports the
// weighted speedup over the no-HBM baseline, the standard
// multi-programmed methodology.

// MixResult is one design's outcome on a workload mix.
type MixResult struct {
	Design          string
	PerCore         []cpu.Result
	WeightedSpeedup float64 // sum over cores of IPC/IPC_baseline
}

// DefaultMix is one benchmark per MPKI class plus a second High one.
var DefaultMix = []string{"mcf", "wrf", "xz", "leela"}

func (h *Harness) mixThreads(sys config.System, names []string) ([]*cpu.Thread, error) {
	slice := (sys.DRAM.CapacityBytes + sys.HBM.CapacityBytes) / uint64(len(names))
	var threads []*cpu.Thread
	for i, name := range names {
		b, err := trace.ByName(name)
		if err != nil {
			return nil, err
		}
		p := b.Scale(h.Scale * uint64(len(names))).Profile
		gen, err := trace.NewSynthetic(p)
		if err != nil {
			return nil, err
		}
		th, err := cpu.NewThread(sys.Caches[:len(sys.Caches)-1], &trace.Offset{
			S:     &trace.Limit{S: gen, N: h.Accesses / uint64(len(names))},
			Delta: addr.Addr(uint64(i) * slice),
		})
		if err != nil {
			return nil, err
		}
		threads = append(threads, th)
	}
	return threads, nil
}

func (h *Harness) runMix(design config.Design, names []string) ([]cpu.Result, error) {
	sys := h.System()
	mem, err := Build(design, sys)
	if err != nil {
		return nil, err
	}
	threads, err := h.mixThreads(sys, names)
	if err != nil {
		return nil, err
	}
	llc, err := cpu.NewSharedLLC(sys.Caches[len(sys.Caches)-1])
	if err != nil {
		return nil, err
	}
	return cpu.RunMulti(sys.Core, threads, llc, mem)
}

// Mix runs the workload mix on the no-HBM baseline and every Figure 8
// design as one sweep, one design per worker (each design's multi-core
// run owns all of its state), then weighs each design's per-core IPC
// against the baseline's.
func (h *Harness) Mix(names []string) ([]MixResult, error) {
	if len(names) == 0 {
		names = DefaultMix
	}
	designs := append([]config.Design{config.DesignNoHBM}, Fig8Designs...)
	// Mix cells run cpu.RunMulti directly rather than Harness.Run, so each
	// cell reports its own completion (accesses summed over the cores).
	cells := make([]cell, len(designs))
	for i, d := range designs {
		cells[i] = cell{ID: cellID("mix", string(d)), Seed: runner.Seed("mix", string(d))}
	}
	out, err := sweepCells(h, cells, nil, func(i int) (MixResult, error) {
		d := designs[i]
		res, err := h.runMix(d, names)
		if err != nil {
			h.Obs.CellFailed(string(d), "mix", err)
			return MixResult{}, fmt.Errorf("mix %s: %w", d, err)
		}
		var accesses uint64
		for i := range res {
			accesses += res[i].Accesses
		}
		h.Obs.CellDone(string(d), "mix", accesses, nil, nil)
		return MixResult{Design: string(d), PerCore: res}, nil
	})
	if err != nil {
		return nil, err
	}
	base, out := out[0].PerCore, out[1:]
	for k := range out {
		ws := 0.0
		for i, r := range out[k].PerCore {
			if base[i].IPC() > 0 {
				ws += r.IPC() / base[i].IPC()
			}
		}
		out[k].WeightedSpeedup = ws
		h.log("mix", "design", out[k].Design, "weighted_speedup", ws)
	}
	return out, nil
}

// MixTable renders the mix results.
func MixTable(names []string, results []MixResult) string {
	if len(names) == 0 {
		names = DefaultMix
	}
	out := "== Multi-core mix (extension): weighted speedup vs no-HBM ==\n"
	out += fmt.Sprintf("cores: %v\n", names)
	out += fmt.Sprintf("%-11s %10s", "design", "weighted")
	for _, n := range names {
		out += fmt.Sprintf("%10s", n)
	}
	out += "\n"
	for _, r := range results {
		out += fmt.Sprintf("%-11s %10.2f", r.Design, r.WeightedSpeedup)
		for _, c := range r.PerCore {
			out += fmt.Sprintf("%10.3f", c.IPC())
		}
		out += "\n"
	}
	return out
}
