package main

import (
	"math"
	"testing"
)

// The expected values are Python's statistics.quantiles(xs, n=4), the
// rule the benchmark's run-to-run spreads are judged by.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
		{[]float64{0.9, 1.3, 1.1, 1.2, 1.0, 1.7, 1.05}, 1.0, 1.1, 1.3},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 27.5, 55, 82.5},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
		if m := median(c.xs); !near(m, c.q2) {
			t.Errorf("median(%v) = %v, want %v", c.xs, m, c.q2)
		}
	}
	if median(nil) != 0 {
		t.Error("median of no samples should be 0")
	}
}

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n  int
		p  float64
		ok bool
	}{
		{5, 0, false},
		{19, 0, false},
		{20, 50, true},
		{99, 50, true},
		{100, 90, true},
		{999, 90, true},
		{1000, 99, true},
		{10000, 99.9, true},
	} {
		p, ok := tailPercentile(c.n)
		if p != c.p || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.p, c.ok)
		}
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100 .. 1
	}
	s := summarize(xs)
	if s.N != 100 || !near(s.Median, 50.5) {
		t.Fatalf("summary %+v", s)
	}
	// p90 of 1..100 by nearest rank is 90, with 10 samples beyond it.
	if s.TailP != 90 || s.Tail != 90 {
		t.Errorf("tail = p%v %v, want p90 90", s.TailP, s.Tail)
	}
	if few := summarize([]float64{3, 1, 2}); few.TailP != 0 || few.Tail != 0 {
		t.Errorf("3 samples reported a tail: %+v", few)
	}
	if got := (summary{Median: 2, Q1: 1.8, Q3: 2.2}).spread(); !near(got, 0.2) {
		t.Errorf("spread = %v, want 0.2", got)
	}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
