package harness

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/trace"
)

// adaptivePhases are three workloads with different locality and
// footprint, sized for Scale 256 (HBM 4 MiB, DRAM 40 MiB).
var adaptivePhases = []trace.Profile{
	{
		// Strong spatial and temporal locality (mcf-like): long runs over
		// a hot set that fits HBM.
		Name: "mcf-like", FootprintBytes: 6 * addr.MiB, AvgGap: 6,
		RunMean: 256, HotFraction: 0.25, HotProbability: 0.92, WriteFraction: 0.25,
	},
	{
		// Weak spatial, strong temporal locality (wrf-like): scattered
		// 64 B references over a footprint far beyond HBM.
		Name: "wrf-like", FootprintBytes: 38 * addr.MiB, AvgGap: 6,
		RunMean: 1.2, HotFraction: 0.03, HotProbability: 0.7, WriteFraction: 0.3,
		ScatteredHot: true,
	},
	{
		// A footprint beyond off-chip DRAM: HBM frames must be handed to
		// the OS to avoid page faults.
		Name: "spill", FootprintBytes: 43 * addr.MiB, AvgGap: 6,
		RunMean: 32, HotFraction: 0.2, HotProbability: 0.5, WriteFraction: 0.3,
	},
}

// phaseState is one design's state after one phase.
type phaseState struct {
	cHBM, mHBM int
	faults     uint64
}

// runPhases runs phases, in order, on one instance of design through
// Harness.Run.
func runPhases(t *testing.T, h *Harness, design config.Design, phases []trace.Profile) []phaseState {
	t.Helper()
	sys := h.System()
	mem, err := Build(design, sys)
	if err != nil {
		t.Fatal(err)
	}
	bb := mem.(*core.Bumblebee)
	var out []phaseState
	var faults uint64
	for _, p := range phases {
		r, err := h.Run(sys, mem, trace.Benchmark{Profile: p})
		if err != nil {
			t.Fatal(err)
		}
		c, m, _ := bb.FrameModes()
		out = append(out, phaseState{cHBM: c, mHBM: m, faults: r.Counters.PageFaults - faults})
		faults = r.Counters.PageFaults
		t.Logf("%s %s: cHBM %d, mHBM %d frames, %d page faults", design, p.Name, c, m, out[len(out)-1].faults)
	}
	return out
}

// TestRatioAdaptsAtRuntime is the paper's pitch: one Bumblebee instance
// shifts its cHBM:mHBM split as the workload changes, without a
// reboot, and spills past off-chip DRAM without a page fault where a
// cache-only HBM cannot.
func TestRatioAdaptsAtRuntime(t *testing.T) {
	h := &Harness{Scale: 256, Accesses: 1_000_000}
	bb := runPhases(t, h, config.DesignBumblebee, adaptivePhases)
	mcf, wrf, spill := bb[0], bb[1], bb[2]
	if mcf.cHBM < 2*wrf.cHBM {
		t.Errorf("cHBM frames %d after mcf-like, %d after wrf-like; want the scattered phase to give up at least half",
			mcf.cHBM, wrf.cHBM)
	}
	if wrf.mHBM <= mcf.mHBM {
		t.Errorf("mHBM frames %d after mcf-like, %d after wrf-like; want them to grow", mcf.mHBM, wrf.mHBM)
	}
	if spill.faults != 0 {
		t.Errorf("bumblebee took %d page faults on the spill phase, want 0", spill.faults)
	}
	if c := runPhases(t, h, config.DesignCacheOnly, adaptivePhases[2:])[0]; c.faults == 0 {
		t.Error("c-only took no page faults on the spill phase; the phase does not spill")
	}
}
