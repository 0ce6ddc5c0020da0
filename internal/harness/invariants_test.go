package harness

import (
	"testing"

	"repro/internal/config"
	"repro/internal/runner"
	"repro/internal/trace"
)

// Conservation invariants that must hold for every memory design on the
// same trace, from the no-HBM baseline to Bumblebee. These are the
// differential checks behind every figure: if one design drops or
// double-counts a request, its normalized numbers are meaningless even
// when they look plausible.

var invariantDesigns = []config.Design{
	config.DesignNoHBM,
	config.DesignAlloy,
	config.DesignUnison,
	config.DesignBanshee,
	config.DesignChameleon,
	config.DesignHybrid2,
	config.DesignCacheOnly,
	config.DesignPOMOnly,
	config.DesignBumblebee,
}

func TestDesignInvariants(t *testing.T) {
	h := tiny()
	benches := []string{"mcf", "wrf"} // strong- and weak-spatial representatives
	for _, name := range benches {
		b, err := trace.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		b = b.Scale(h.Scale)
		// The no-HBM run normalizes everything else.
		base, err := runDesign(h, config.DesignNoHBM, b)
		if err != nil {
			t.Fatal(err)
		}
		if base.CPU.IPC() <= 0 {
			t.Fatalf("%s: baseline IPC %f", name, base.CPU.IPC())
		}
		for _, d := range invariantDesigns {
			d := d
			t.Run(string(d)+"/"+name, func(t *testing.T) {
				r, err := runDesign(h, d, b)
				if err != nil {
					t.Fatal(err)
				}
				c := r.Counters

				// Progress: the run retired instructions and took cycles.
				if r.CPU.Instructions == 0 || r.CPU.Cycles == 0 {
					t.Errorf("degenerate run: %+v", r.CPU)
				}
				// Normalized IPC must be positive for every design.
				if norm := r.CPU.IPC() / base.CPU.IPC(); norm <= 0 {
					t.Errorf("normalized IPC %f", norm)
				}

				// Request conservation: the memory system served exactly
				// the LLC miss stream, each request from exactly one
				// device (hits + misses == accesses at the HMM boundary).
				if c.Requests != r.CPU.LLCMisses {
					t.Errorf("requests %d != LLC misses %d", c.Requests, r.CPU.LLCMisses)
				}
				if c.ServedHBM+c.ServedDRAM != c.Requests {
					t.Errorf("served HBM %d + DRAM %d != requests %d",
						c.ServedHBM, c.ServedDRAM, c.Requests)
				}
				if rate := c.HBMServeRate(); rate < 0 || rate > 1 {
					t.Errorf("HBM serve rate %f out of [0,1]", rate)
				}

				// Writeback conservation: the design accepted every LLC
				// dirty eviction.
				if c.Writebacks != r.CPU.Writebacks {
					t.Errorf("writebacks %d != CPU writebacks %d", c.Writebacks, r.CPU.Writebacks)
				}

				// Device traffic: every HBM-served request moves at least
				// its 64 B line on the HBM bus, and likewise for DRAM —
				// occupancy accounting cannot exceed what the bus carried.
				if c.ServedHBM > 0 && r.HBMBytes < c.ServedHBM*64 {
					t.Errorf("HBM traffic %d B below served lines %d", r.HBMBytes, c.ServedHBM*64)
				}
				if c.ServedDRAM > 0 && r.DRAMBytes < c.ServedDRAM*64 {
					t.Errorf("DRAM traffic %d B below served lines %d", r.DRAMBytes, c.ServedDRAM*64)
				}

				// Over-fetch accounting stays within physical bounds.
				if rate := c.OverfetchRate(); rate < 0 || rate > 1 {
					t.Errorf("overfetch rate %f out of [0,1]", rate)
				}

				// Energy is spent iff traffic moved.
				if r.Energy.TotalPJ() <= 0 {
					t.Error("no energy recorded")
				}

				// Design-shape invariants.
				if d == config.DesignNoHBM {
					if c.ServedHBM != 0 || r.HBMBytes != 0 {
						t.Errorf("no-hbm touched HBM: served %d, %d bytes", c.ServedHBM, r.HBMBytes)
					}
				} else if r.HBMBytes == 0 {
					t.Error("HBM-bearing design moved no HBM bytes")
				}
			})
		}
	}
}

// The same matrix run in parallel must satisfy the same invariants with
// bit-identical counters — the runner's ordered assembly means cell (d,b)
// is the same result object regardless of worker count.
func TestDesignInvariantsParallelIdentical(t *testing.T) {
	h := tiny()
	b, err := trace.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	b = b.Scale(h.Scale)
	run := func(workers int) []RunResult {
		out, err := runner.Map(workers, runner.Policy{}, invariantDesigns, func(_ int, d config.Design) (RunResult, error) {
			return runDesign(h, d, b)
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return out
	}
	serial, parallel := run(1), run(8)
	for i, d := range invariantDesigns {
		if serial[i].Counters != parallel[i].Counters || serial[i].CPU != parallel[i].CPU {
			t.Errorf("%s: serial and parallel runs differ:\n%+v\nvs\n%+v",
				d, serial[i], parallel[i])
		}
	}
}
