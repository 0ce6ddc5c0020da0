package report

import (
	"sort"

	"repro/internal/alert"
)

// The anomaly rules encode the failure signatures we know how to read
// out of a run directory. Each is deliberately simple — a threshold over
// columns the sweep already emits — so a flag always points at concrete
// numbers the reader can check in the CSVs. The rule logic itself lives
// in internal/alert: post-hoc analysis here evaluates the exact same
// engine the live sweep monitor and bbserve jobs run, so a flag in a
// report is the same object as a firing gauge on /metrics.

// AlertInput lowers a loaded run directory into the engine's input
// shape: runs.csv rows become run samples, the timeline's stateful
// epochs become per-cell series (grouped in sorted cell order), and
// runs_latency.csv rows become latency samples.
func AlertInput(run *Run) alert.Input {
	var in alert.Input
	for _, r := range run.Runs {
		in.Runs = append(in.Runs, alert.RunSample{
			Design: r.Design, Bench: r.Bench,
			Accesses:     r.ServedHBM + r.ServedDRAM,
			ModeSwitches: r.ModeSwitches,
		})
	}
	type key struct{ design, bench string }
	series := map[key][]alert.EpochSample{}
	for _, t := range run.Timeline {
		if t.HasState {
			k := key{t.Design, t.Bench}
			series[k] = append(series[k], alert.EpochSample{
				Access:       t.Access,
				ModeSwitches: t.ModeSwitches,
				HotEntries:   t.HotHBM,
				MoverStarted: t.MoverStarted,
				MoverSkipped: t.MoverSkipped,
				HasState:     true,
			})
		}
	}
	keys := make([]key, 0, len(series))
	for k := range series {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].design != keys[j].design {
			return keys[i].design < keys[j].design
		}
		return keys[i].bench < keys[j].bench
	})
	for _, k := range keys {
		in.Series = append(in.Series, alert.Series{
			Design: k.design, Bench: k.bench, Epochs: series[k],
		})
	}
	for _, l := range run.Latency {
		in.Latency = append(in.Latency, alert.LatencySample{
			Design: l.Design, Bench: l.Bench, Tier: l.Tier,
			Count: l.Count, P99: l.P99, Max: l.Max,
		})
	}
	return in
}

// AnalyzeRules evaluates a rule set over one loaded run directory and
// returns the firing alerts sorted by (rule, design, bench, detail) —
// deterministic report input.
func AnalyzeRules(run *Run, rs alert.RuleSet) []alert.Alert {
	alerts := alert.Evaluate(AlertInput(run), rs)
	alert.Sort(alerts)
	return alerts
}
