package report

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/alert"
)

// This file analyzes a bbserve service_trace.json — the per-job span
// tree exported in Chrome trace_event form — into deterministic
// Markdown: the request's critical path, per-span duration aggregates,
// and rule-based anomaly flags mirroring the report analyzer's style.
// Like every bbreport output, the rendering is a pure function of the
// input bytes.

// TraceSpan is one completed span decoded from a service trace.
type TraceSpan struct {
	ID      uint64
	Parent  uint64
	Name    string
	Job     string  // root spans carry the job-correlation ID
	StartUS float64 // microseconds from trace birth
	DurUS   float64
	Status  string
}

// EndUS returns the span's end offset in microseconds.
func (s TraceSpan) EndUS() float64 { return s.StartUS + s.DurUS }

// LoadServiceTrace decodes the ph:"X" span events of a Chrome trace
// JSON file into spans sorted by ID. Non-span events (instants,
// counters, metadata) are ignored, so the loader also accepts combined
// exports.
func LoadServiceTrace(path string) ([]TraceSpan, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("trace: %s: %w", path, err)
	}
	arg := func(m map[string]any, key string) string {
		v, _ := m[key].(string)
		return v
	}
	var spans []TraceSpan
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		sp := TraceSpan{
			Name:    ev.Name,
			Job:     arg(ev.Args, "job"),
			StartUS: ev.Ts,
			DurUS:   ev.Dur,
			Status:  arg(ev.Args, "status"),
		}
		sp.ID, _ = strconv.ParseUint(arg(ev.Args, "span"), 10, 64)
		sp.Parent, _ = strconv.ParseUint(arg(ev.Args, "parent"), 10, 64)
		spans = append(spans, sp)
	}
	if len(spans) == 0 {
		return nil, fmt.Errorf("trace: %s: no span events", path)
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].ID < spans[j].ID })
	return spans, nil
}

// TraceFlag is one triggered anomaly rule over a span tree.
type TraceFlag struct {
	Rule   string
	Detail string
}

// SpanSamples lowers a span tree into the alert engine's input shape.
func SpanSamples(spans []TraceSpan) []alert.Span {
	out := make([]alert.Span, len(spans))
	for i, s := range spans {
		out[i] = alert.Span{Name: s.Name, DurUS: s.DurUS, Status: s.Status}
	}
	return out
}

// AnalyzeTraceRules evaluates rs over a span tree via the shared alert
// engine. The built-in service-trace rules in alert.Defaults(), which a
// live bbserve job also evaluates, are:
//
//   - queue-dominated: the job waited in the queue longer than it
//     simulated — the fleet is undersized for the offered load.
//   - decode-dominated: trace decoding cost more than simulation — the
//     codec (or storage) is the bottleneck, not the model.
//   - admission-dominated: spooling plus cache lookup cost more than
//     simulation, so even a cache hit — which still pays the admission
//     path — would be slower than simulating a trivial job (the
//     "cache-hit slower than miss" smell).
//   - aborted/error spans: the tree records a drain abort or failure.
//
// Flags keep the engine's rule order.
func AnalyzeTraceRules(spans []TraceSpan, rs alert.RuleSet) []TraceFlag {
	alerts := alert.Evaluate(alert.Input{Spans: SpanSamples(spans)}, rs)
	var flags []TraceFlag
	for _, a := range alerts {
		flags = append(flags, TraceFlag{Rule: a.Rule, Detail: a.Detail})
	}
	return flags
}

// CriticalPath walks from the root span downward, at each level
// descending into the child whose end time is latest (ties break to the
// smaller span ID), so the returned chain is the sequence of spans that
// bound the request's end-to-end latency.
func CriticalPath(spans []TraceSpan) []TraceSpan {
	byParent := make(map[uint64][]TraceSpan)
	var root *TraceSpan
	for i, s := range spans {
		if s.Parent == 0 {
			if root == nil {
				root = &spans[i]
			}
		} else {
			byParent[s.Parent] = append(byParent[s.Parent], s)
		}
	}
	if root == nil {
		return nil
	}
	path := []TraceSpan{*root}
	cur := *root
	for {
		kids := byParent[cur.ID]
		if len(kids) == 0 {
			return path
		}
		best := kids[0]
		for _, k := range kids[1:] {
			if k.EndUS() > best.EndUS() || (k.EndUS() == best.EndUS() && k.ID < best.ID) {
				best = k
			}
		}
		path = append(path, best)
		cur = best
	}
}

// WriteTraceMarkdownRules renders the span-tree analysis under a rule
// set (alert.Defaults() or a -rules file). Output is a pure function of
// spans and rules — the golden test diffs it bytewise.
func WriteTraceMarkdownRules(w io.Writer, spans []TraceSpan, rs alert.RuleSet) error {
	b := &strings.Builder{}
	var root *TraceSpan
	for i := range spans {
		if spans[i].Parent == 0 {
			root = &spans[i]
			break
		}
	}
	if root == nil {
		return fmt.Errorf("trace: no root span")
	}
	job := root.Job
	if job == "" {
		job = "—"
	}
	fmt.Fprintf(b, "# bbserve request trace\n\n")
	fmt.Fprintf(b, "| field | value |\n|---|---|\n")
	fmt.Fprintf(b, "| job | %s |\n", job)
	fmt.Fprintf(b, "| spans | %d |\n", len(spans))
	fmt.Fprintf(b, "| end-to-end µs | %s |\n", f3(root.DurUS))
	fmt.Fprintf(b, "| status | %s |\n", root.Status)

	fmt.Fprintf(b, "\n### Critical path\n\n")
	fmt.Fprintf(b, "| # | span | start µs | dur µs | %% of e2e |\n|---|---|---|---|---|\n")
	for i, s := range CriticalPath(spans) {
		fmt.Fprintf(b, "| %d | %s | %s | %s | %s |\n",
			i+1, s.Name, f3(s.StartUS), f3(s.DurUS), f1(share(s.DurUS, root.DurUS)))
	}

	// Aggregate by span name: the per-design decode/simulate families
	// collapse into comparable totals.
	type agg struct {
		name        string
		count       int
		totalUS     float64
		worstStatus string
	}
	byName := map[string]*agg{}
	var order []string
	for _, s := range spans {
		a := byName[s.Name]
		if a == nil {
			a = &agg{name: s.Name, worstStatus: s.Status}
			byName[s.Name] = a
			order = append(order, s.Name)
		}
		a.count++
		a.totalUS += s.DurUS
		if s.Status != "ok" {
			a.worstStatus = s.Status
		}
	}
	sort.Slice(order, func(i, j int) bool {
		a, c := byName[order[i]], byName[order[j]]
		if a.totalUS != c.totalUS {
			return a.totalUS > c.totalUS
		}
		return a.name < c.name
	})
	fmt.Fprintf(b, "\n### Span durations\n\n")
	fmt.Fprintf(b, "| span | count | total µs | %% of e2e | status |\n|---|---|---|---|---|\n")
	for _, name := range order {
		a := byName[name]
		fmt.Fprintf(b, "| %s | %d | %s | %s | %s |\n",
			a.name, a.count, f3(a.totalUS), f1(share(a.totalUS, root.DurUS)), a.worstStatus)
	}

	flags := AnalyzeTraceRules(spans, rs)
	fmt.Fprintf(b, "\n### Anomalies\n\n")
	if len(flags) == 0 {
		fmt.Fprintf(b, "none detected.\n")
	}
	for _, f := range flags {
		fmt.Fprintf(b, "- **%s**: %s\n", f.Rule, f.Detail)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// share returns part as a percentage of whole (0 when whole is 0).
func share(part, whole float64) float64 {
	if whole <= 0 {
		return 0
	}
	return 100 * part / whole
}
