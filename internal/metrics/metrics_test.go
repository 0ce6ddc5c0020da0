package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestGeomean(t *testing.T) {
	got, err := Geomean([]float64{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-2) > 1e-9 {
		t.Errorf("Geomean(1,4) = %f, want 2", got)
	}
	if _, err := Geomean(nil); err == nil {
		t.Error("empty geomean accepted")
	}
	if _, err := Geomean([]float64{1, 0}); err == nil {
		t.Error("zero value accepted")
	}
	if _, err := Geomean([]float64{-1}); err == nil {
		t.Error("negative value accepted")
	}
}

func TestGeomeanTable(t *testing.T) {
	cases := []struct {
		name    string
		in      []float64
		want    float64
		wantErr bool
	}{
		{"single", []float64{3.5}, 3.5, false},
		{"identical", []float64{2, 2, 2, 2}, 2, false},
		{"wide magnitudes", []float64{1e-6, 1e6}, 1, false},
		{"three values", []float64{1, 2, 4}, 2, false},
		{"empty", nil, 0, true},
		{"zero", []float64{1, 0}, 0, true},
		{"negative", []float64{-2}, 0, true},
		{"NaN", []float64{1, math.NaN()}, 0, true},
		{"+Inf", []float64{1, math.Inf(1)}, 0, true},
	}
	for _, tc := range cases {
		got, err := Geomean(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("%s: Geomean(%v) accepted, got %f", tc.name, tc.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if math.Abs(got-tc.want) > 1e-9*tc.want {
			t.Errorf("%s: Geomean(%v) = %f, want %f", tc.name, tc.in, got, tc.want)
		}
	}
}

func TestMeanAccumulation(t *testing.T) {
	cases := []struct {
		name string
		in   []float64
		want float64
	}{
		{"cancel", []float64{-3, 3}, 0},
		{"negative", []float64{-1, -2, -3}, -2},
		{"running", []float64{0.5, 0.25, 0.25}, 1.0 / 3},
	}
	for _, tc := range cases {
		if got := Mean(tc.in); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: Mean(%v) = %f, want %f", tc.name, tc.in, got, tc.want)
		}
	}
}

func TestTableDegenerate(t *testing.T) {
	// No rows, no columns: the render must not panic and stays parseable.
	empty := &Table{Title: "empty"}
	if s := empty.String(); !strings.Contains(s, "empty") {
		t.Errorf("empty table lost its title: %q", s)
	}
	// A column with no matching value renders the placeholder, never 0.000
	// (which would be indistinguishable from a real measurement).
	tb := &Table{Columns: []string{"only"}}
	tb.Add("row", nil)
	if s := tb.String(); !strings.Contains(s, "-") || strings.Contains(s, "0.000") {
		t.Errorf("missing value rendered as data: %q", s)
	}
}

func TestGeomeanBetweenMinMax(t *testing.T) {
	f := func(raw []float64) bool {
		var vs []float64
		for _, v := range raw {
			v = math.Abs(v)
			if v > 1e-6 && v < 1e6 {
				vs = append(vs, v)
			}
		}
		if len(vs) == 0 {
			return true
		}
		g, err := Geomean(vs)
		if err != nil {
			return false
		}
		min, max := vs[0], vs[0]
		for _, v := range vs {
			min = math.Min(min, v)
			max = math.Max(max, v)
		}
		return g >= min*(1-1e-9) && g <= max*(1+1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %f, want 2", got)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %f, want 0", got)
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{Title: "Fig X", Columns: []string{"High", "Low"}}
	tb.Add("bumblebee", map[string]float64{"High": 2.0, "Low": 1.1})
	tb.Add("alloy", map[string]float64{"High": 1.2})
	s := tb.String()
	for _, want := range []string{"Fig X", "bumblebee", "alloy", "2.000", "1.100", "High", "Low", "-"} {
		if !strings.Contains(s, want) {
			t.Errorf("table output missing %q:\n%s", want, s)
		}
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(5, 10, 15, 20)
	for _, v := range []float64{0, 4.9, 5, 12, 19, 20, 100} {
		h.Observe(v)
	}
	want := []uint64{2, 1, 1, 1, 2}
	for i, c := range h.Counts {
		if c != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, c, want[i])
		}
	}
	if h.Total() != 7 {
		t.Errorf("total = %d, want 7", h.Total())
	}
	shares := h.Shares()
	var sum float64
	for _, s := range shares {
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %f", sum)
	}
}

func TestHistogramEmptyShares(t *testing.T) {
	h := NewHistogram(1, 2)
	for _, s := range h.Shares() {
		if s != 0 {
			t.Errorf("empty histogram share = %f", s)
		}
	}
}

func TestHistogramUnsortedBounds(t *testing.T) {
	h := NewHistogram(20, 5, 10)
	h.Observe(7)
	if h.Counts[0] != 0 || h.Counts[1] != 1 {
		t.Errorf("bounds not sorted: %v / %v", h.Bounds, h.Counts)
	}
}

func TestBarChart(t *testing.T) {
	out := BarChart("demo", []string{"a", "longer"}, []float64{1, 2}, 10)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d", len(lines))
	}
	if !strings.Contains(lines[2], strings.Repeat("#", 10)) {
		t.Errorf("max bar not full width: %q", lines[2])
	}
	if !strings.Contains(lines[1], "#####") {
		t.Errorf("half bar wrong: %q", lines[1])
	}
	// Degenerate inputs must not panic.
	_ = BarChart("", nil, nil, 0)
	_ = BarChart("", []string{"x"}, []float64{0}, 5)
	_ = BarChart("", []string{"x", "y"}, []float64{1}, 5)
}

func TestTableBars(t *testing.T) {
	tb := &Table{Title: "Fig", Columns: []string{"All"}}
	tb.Add("bumblebee", map[string]float64{"All": 2})
	tb.Add("alloy", map[string]float64{"All": 1})
	out := tb.TableBars("All", 8)
	if !strings.Contains(out, "Fig [All]") || !strings.Contains(out, "bumblebee") {
		t.Errorf("table bars output wrong:\n%s", out)
	}
}
