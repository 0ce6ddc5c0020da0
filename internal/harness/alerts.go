package harness

import (
	"io"

	"repro/internal/alert"
	"repro/internal/telemetry"
)

// This file bridges the harness to the live alert engine
// (internal/alert). Like the obs bridge, the coupling is strictly
// one-way and nil-safe: a nil Monitor means every feed call is a
// compare-and-skip, and nothing the monitor computes can reach back
// into a simulation. The lowering here mirrors the CSV schema exactly
// — epoch samples carry what runs_timeline.csv rows carry, run
// samples what runs.csv rows carry, latency samples what
// runs_latency.csv rows carry — which is what makes live evaluation
// and post-hoc evaluation of a written run directory provably agree.

// epochSample lowers one timeline point into the engine's epoch shape.
func epochSample(pt TimelinePoint) alert.EpochSample {
	ep := alert.EpochSample{
		Access:       pt.Access,
		ModeSwitches: pt.Counters.ModeSwitches,
		ServedHBM:    pt.Counters.ServedHBM,
		ServedDRAM:   pt.Counters.ServedDRAM,
	}
	if pt.HasState {
		ep.HotEntries = pt.State.HotHBMEntries
		ep.MoverStarted = pt.State.MoverStarted
		ep.MoverSkipped = pt.State.MoverSkipped
		ep.HasState = true
	}
	return ep
}

// runSample lowers one completed run's counters.
func runSample(r RunResult) alert.RunSample {
	return alert.RunSample{
		Design: r.Design, Bench: r.Bench,
		Accesses:     r.Counters.ServedHBM + r.Counters.ServedDRAM,
		ModeSwitches: r.Counters.ModeSwitches,
	}
}

// latencySamples lowers a run's per-tier histograms (nil without
// telemetry), one sample per tier like runs_latency.csv.
func latencySamples(r RunResult) []alert.LatencySample {
	if r.Telemetry == nil {
		return nil
	}
	out := make([]alert.LatencySample, 0, telemetry.NumTiers)
	for t := telemetry.Tier(0); t < telemetry.NumTiers; t++ {
		h := &r.Telemetry.Lat[t]
		out = append(out, alert.LatencySample{
			Design: r.Design, Bench: r.Bench, Tier: t.String(),
			Count: h.Count, P99: h.Quantile(0.99), Max: h.Max,
		})
	}
	return out
}

// WriteAlertsJSON renders the alerts.json artifact: rs evaluated over
// the assembled runs. It is computed from in-memory results — matrix
// order, never a live monitor's state — so the bytes are identical at
// any Parallel setting; the harness tests prove the live monitor
// agrees.
func WriteAlertsJSON(w io.Writer, runs []RunResult, rs alert.RuleSet) error {
	return alert.WriteJSON(w, rs, alert.Evaluate(alertInput(runs), rs))
}

// alertInput lowers assembled sweep results into the alert engine's
// input: the same values the runs/timeline/latency CSVs would carry,
// so Evaluate over it equals Evaluate over the re-loaded run
// directory.
func alertInput(runs []RunResult) alert.Input {
	var in alert.Input
	for _, r := range runs {
		in.Runs = append(in.Runs, runSample(r))
		if r.Telemetry == nil {
			continue
		}
		s := alert.Series{Design: r.Design, Bench: r.Bench}
		for _, pt := range r.Telemetry.Timeline {
			if ep := epochSample(pt); ep.HasState {
				s.Epochs = append(s.Epochs, ep)
			}
		}
		if len(s.Epochs) > 0 {
			in.Series = append(in.Series, s)
		}
		in.Latency = append(in.Latency, latencySamples(r)...)
	}
	return in
}

// feedAlerts replays one finished run into the live monitor — the
// resume path: a cell served from the checkpoint journal never
// simulates, so without this the live firing set after a
// resumed sweep would silently miss every resumed cell's alerts.
func (h *Harness) feedAlerts(r RunResult) {
	cm := h.Alerts.StartCell(r.Design, r.Bench)
	if cm == nil {
		return
	}
	if r.Telemetry != nil {
		for _, pt := range r.Telemetry.Timeline {
			cm.ObserveEpoch(epochSample(pt))
		}
	}
	cm.Done(runSample(r), latencySamples(r))
}

// alertReplay type-asserts a resumed journal payload back to a
// RunResult and feeds it to the monitor (sweeps whose cell type is
// not RunResult have nothing to feed).
func (h *Harness) alertReplay(v any) {
	if h.Alerts == nil {
		return
	}
	if r, ok := v.(RunResult); ok {
		h.feedAlerts(r)
	}
}
