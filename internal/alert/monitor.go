package alert

import (
	"log/slog"
	"sort"
	"strconv"
	"sync"
)

// Monitor evaluates a rule set live as a sweep runs. Each cell gets a
// CellMon handle (StartCell); the harness feeds it epoch samples as
// telemetry fires and a final sample when the cell completes. Every
// feed re-runs Evaluate over the cell's data so far — the same pure
// function post-hoc reporting uses — and diffs the firing set, so by
// a sweep's end the monitor's firing alerts are exactly what
// re-analyzing the written run directory produces.
//
// Like Probe and JobTrace, nil is the disabled state: a nil *Monitor
// returns nil CellMons, whose methods no-op at nil-check cost.
type Monitor struct {
	// OnAlert, when set, is called once per firing transition (not per
	// re-evaluation) with the alert's current detail. Called without
	// the monitor lock held, in cell feed order.
	OnAlert func(Alert)
	// Log, when set, records fire (Warn) and resolve (Info) events.
	Log *slog.Logger

	rules RuleSet

	mu     sync.Mutex
	firing map[string]Alert // firing identity key → latest alert
	total  uint64           // firing transitions since creation
	cells  uint64           // StartCell counter; disambiguates cells that share (design, bench)
}

// NewMonitor returns a live monitor for rs.
func NewMonitor(rs RuleSet) *Monitor {
	return &Monitor{rules: rs, firing: make(map[string]Alert)}
}

// Rules returns the monitored rule set.
func (m *Monitor) Rules() RuleSet {
	if m == nil {
		return RuleSet{}
	}
	return m.rules
}

// Firing returns the currently firing alerts sorted by (rule, design,
// bench, detail).
func (m *Monitor) Firing() []Alert {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	out := make([]Alert, 0, len(m.firing))
	for _, a := range m.firing {
		out = append(out, a)
	}
	m.mu.Unlock()
	Sort(out)
	return out
}

// Total returns the number of firing transitions observed.
func (m *Monitor) Total() uint64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.total
}

// CellMon is one cell's feed handle. It is owned by the goroutine
// running the cell; the shared firing state behind it is locked.
type CellMon struct {
	m      *Monitor
	design string
	bench  string
	id     string // unique per StartCell: sweeps may run one (design, bench) under several configs

	run    RunSample
	series Series
	cur    map[string]Alert // this cell's firing alerts by identity key
}

// StartCell returns the feed handle for one (design, bench) cell. A
// nil monitor returns a nil handle — the disabled path.
func (m *Monitor) StartCell(design, bench string) *CellMon {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	m.cells++
	id := strconv.FormatUint(m.cells, 10)
	m.mu.Unlock()
	return &CellMon{
		m:      m,
		design: design,
		bench:  bench,
		id:     id,
		run:    RunSample{Design: design, Bench: bench},
		series: Series{Design: design, Bench: bench},
		cur:    make(map[string]Alert),
	}
}

// ObserveEpoch feeds one telemetry epoch snapshot (cumulative
// counters) and re-evaluates the cell's rules over the data so far.
// The nil receiver is the disabled path: the wrapper stays within the
// inlining budget, so a disabled feed compiles to a compare-and-skip.
func (c *CellMon) ObserveEpoch(ep EpochSample) {
	if c == nil {
		return
	}
	c.observeEpoch(ep)
}

func (c *CellMon) observeEpoch(ep EpochSample) {
	c.run.Accesses = ep.ServedHBM + ep.ServedDRAM
	c.run.ModeSwitches = ep.ModeSwitches
	if ep.HasState {
		c.series.Epochs = append(c.series.Epochs, ep)
	}
	c.eval(nil)
}

// Done feeds the cell's final counters and latency summaries and runs
// the last evaluation. After Done the cell's firing set equals what
// Evaluate returns post-hoc for the same run — equality by
// construction, since this is the same call.
func (c *CellMon) Done(run RunSample, lat []LatencySample) {
	if c == nil {
		return
	}
	c.run = run
	c.eval(lat)
}

// eval re-runs the rule set over the cell's current data and
// publishes firing-set transitions to the shared monitor state.
func (c *CellMon) eval(lat []LatencySample) {
	in := Input{Runs: []RunSample{c.run}, Latency: lat}
	if len(c.series.Epochs) > 0 {
		in.Series = []Series{c.series}
	}
	got := Evaluate(in, c.m.rules)

	next := make(map[string]Alert, len(got))
	for _, a := range got {
		next[c.id+"\x00"+a.key()] = a
	}
	var fired, resolved []Alert
	c.m.mu.Lock()
	for k, a := range next {
		if _, ok := c.cur[k]; !ok {
			fired = append(fired, a)
			c.m.total++
		}
		c.m.firing[k] = a
	}
	for k, a := range c.cur {
		if _, ok := next[k]; !ok {
			resolved = append(resolved, a)
			delete(c.m.firing, k)
		}
	}
	c.m.mu.Unlock()
	c.cur = next

	Sort(fired)
	Sort(resolved)
	for _, a := range fired {
		if c.m.Log != nil {
			c.m.Log.Warn("alert firing", "rule", a.Rule, "severity", string(a.Severity),
				"design", a.Design, "bench", a.Bench, "detail", a.Detail)
		}
		if c.m.OnAlert != nil {
			c.m.OnAlert(a)
		}
	}
	for _, a := range resolved {
		if c.m.Log != nil {
			c.m.Log.Info("alert resolved", "rule", a.Rule, "design", a.Design, "bench", a.Bench)
		}
	}
}

// Sort orders alerts by (rule, design, bench, detail): the order of
// transition callbacks within one feed, of Firing, and of post-hoc
// reports.
func Sort(as []Alert) {
	sort.Slice(as, func(i, j int) bool {
		a, b := as[i], as[j]
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		if a.Design != b.Design {
			return a.Design < b.Design
		}
		if a.Bench != b.Bench {
			return a.Bench < b.Bench
		}
		return a.Detail < b.Detail
	})
}

// GaugeSample is one bb_alerts_firing exposition sample: the count of
// firing alerts carrying one (rule, design, bench) label set.
type GaugeSample struct {
	Rule, Design, Bench string
	Value               int
}

// GaugeSamples summarizes the firing set for /metrics rendering.
func (m *Monitor) GaugeSamples() []GaugeSample {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	counts := make(map[[3]string]int)
	for _, a := range m.firing {
		counts[[3]string{a.Rule, a.Design, a.Bench}]++
	}
	m.mu.Unlock()
	out := make([]GaugeSample, 0, len(counts))
	for k, v := range counts {
		out = append(out, GaugeSample{Rule: k[0], Design: k[1], Bench: k[2], Value: v})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		if a.Design != b.Design {
			return a.Design < b.Design
		}
		return a.Bench < b.Bench
	})
	return out
}
