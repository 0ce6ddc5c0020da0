package core

import (
	"repro/internal/hmm"
	"repro/internal/telemetry"
)

var _ hmm.StateReporter = (*Bumblebee)(nil)

// TelemetryState implements hmm.StateReporter: a whole-controller snapshot
// of the adaptive state the aggregate counters cannot show — the live
// cHBM:mHBM frame split (summed over all remapping sets), quarantined
// frames, hot-table occupancy, and movement-engine budget use. It sums
// each set's summaries, is read-only and touches no latency model, so
// sampling never perturbs a run.
func (b *Bumblebee) TelemetryState() telemetry.DesignState {
	var st telemetry.DesignState
	for _, s := range b.sets {
		// A retired frame is always free, so it is one of the classFree ways.
		st.CHBMFrames += uint64(s.classes[classCached])
		st.MHBMFrames += uint64(s.classes[classDense] + s.classes[classSparse])
		st.RetiredFrames += uint64(s.retiredCount)
		st.FreeFrames += uint64(s.classes[classFree] - s.retiredCount)
		st.HotHBMEntries += uint64(s.hot.hbm.len())
		st.HotDRAMEntries += uint64(s.hot.dram.len())
	}
	st.MoverStarted = b.mover.Started
	st.MoverSkipped = b.mover.Skipped
	return st
}
