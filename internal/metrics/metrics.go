// Package metrics provides the aggregation helpers the benchmark harness
// uses to turn raw simulation counters into the paper's reported numbers:
// geometric means, normalization against a baseline, and fixed-width text
// tables.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Geomean returns the geometric mean of vs, ignoring non-positive values
// is an error: the paper's normalized IPCs are always positive.
func Geomean(vs []float64) (float64, error) {
	if len(vs) == 0 {
		return 0, fmt.Errorf("metrics: geomean of empty slice")
	}
	sum := 0.0
	for _, v := range vs {
		// NaN fails every comparison, so it needs its own guard: without
		// it a NaN from an upstream zero-division would silently poison
		// the whole mean instead of surfacing as an error.
		if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return 0, fmt.Errorf("metrics: geomean of non-positive value %f", v)
		}
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vs))), nil
}

// Mean returns the arithmetic mean of vs.
func Mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// Series is one named row of values keyed by column label, e.g. one
// design's normalized IPC across benchmark groups.
type Series struct {
	Name   string
	Values map[string]float64
}

// Table formats labelled series the way the paper's figures tabulate
// them: one row per series, one column per label.
type Table struct {
	Title   string
	Columns []string
	Rows    []Series
}

// Add appends a series row.
func (t *Table) Add(name string, values map[string]float64) {
	t.Rows = append(t.Rows, Series{Name: name, Values: values})
}

// String renders the table as fixed-width text.
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	nameW := len("design")
	for _, r := range t.Rows {
		if len(r.Name) > nameW {
			nameW = len(r.Name)
		}
	}
	fmt.Fprintf(&b, "%-*s", nameW+2, "")
	for _, c := range t.Columns {
		fmt.Fprintf(&b, "%12s", c)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-*s", nameW+2, r.Name)
		for _, c := range t.Columns {
			v, ok := r.Values[c]
			if !ok {
				fmt.Fprintf(&b, "%12s", "-")
				continue
			}
			fmt.Fprintf(&b, "%12.3f", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Histogram is a bucketed counter used for the Figure 1 access-count
// distributions.
type Histogram struct {
	Bounds []float64 // bucket upper bounds; final bucket is open
	Counts []uint64
}

// NewHistogram builds a histogram with the given ascending upper bounds.
func NewHistogram(bounds ...float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{Bounds: bs, Counts: make([]uint64, len(bs)+1)}
}

// Observe adds one sample.
func (h *Histogram) Observe(v float64) {
	for i, b := range h.Bounds {
		if v < b {
			h.Counts[i]++
			return
		}
	}
	h.Counts[len(h.Bounds)]++
}

// Total returns the number of observations.
func (h *Histogram) Total() uint64 {
	var t uint64
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// Shares returns each bucket's share of the total, or all zeros when
// empty.
func (h *Histogram) Shares() []float64 {
	out := make([]float64, len(h.Counts))
	total := h.Total()
	if total == 0 {
		return out
	}
	for i, c := range h.Counts {
		out[i] = float64(c) / float64(total)
	}
	return out
}

// BarChart renders labelled values as a horizontal ASCII bar chart, the
// terminal equivalent of the paper's figure panels. Bars scale to the
// maximum value; width is the bar area in characters.
func BarChart(title string, labels []string, values []float64, width int) string {
	if width <= 0 {
		width = 40
	}
	var b strings.Builder
	if title != "" {
		fmt.Fprintf(&b, "%s\n", title)
	}
	labelW := 0
	max := 0.0
	for i, l := range labels {
		if len(l) > labelW {
			labelW = len(l)
		}
		if i < len(values) && values[i] > max {
			max = values[i]
		}
	}
	if max <= 0 {
		max = 1
	}
	for i, l := range labels {
		v := 0.0
		if i < len(values) {
			v = values[i]
		}
		n := int(v / max * float64(width))
		if n < 0 {
			n = 0
		}
		fmt.Fprintf(&b, "%-*s %8.3f %s\n", labelW, l, v, strings.Repeat("#", n))
	}
	return b.String()
}

// TableBars renders one column of a Table as a bar chart.
func (t *Table) TableBars(column string, width int) string {
	labels := make([]string, len(t.Rows))
	values := make([]float64, len(t.Rows))
	for i, r := range t.Rows {
		labels[i] = r.Name
		values[i] = r.Values[column]
	}
	title := t.Title
	if title != "" {
		title += " [" + column + "]"
	}
	return BarChart(title, labels, values, width)
}
