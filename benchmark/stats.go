package main

import (
	"math"
	"sort"
)

// tailSamples is how many samples must lie beyond a reported percentile
// for it to mean anything: with fewer, the "p99" of a run is just its
// maximum.
const tailSamples = 10

// summary is one metric's distribution over a run's samples.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	// TailP is the highest percentile with at least tailSamples samples
	// beyond it, and Tail its value; both are 0 when n is too small.
	TailP   float64   `json:"tail_p,omitempty"`
	Tail    float64   `json:"tail,omitempty"`
	Samples []float64 `json:"samples"`
}

func summarize(xs []float64) summary {
	s := summary{N: len(xs), Samples: append([]float64(nil), xs...)}
	if len(xs) == 0 {
		return s
	}
	s.Q1, s.Median, s.Q3 = quartiles(xs)
	if p, ok := tailPercentile(len(xs)); ok {
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		s.TailP, s.Tail = p, percentile(sorted, p)
	}
	return s
}

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// quartiles returns the three cut points of xs by the "exclusive" method
// of Python's statistics.quantiles(xs, n=4), so the spreads printed here
// are the spreads a reader computes from the samples with the standard
// library. The middle point is the median.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n := len(d)
	if n == 1 {
		return d[0], d[0], d[0]
	}
	m := n + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	_, m, _ := quartiles(xs)
	return m
}

// tailPercentile returns the highest of p50, p90, p99 and p99.9 that
// leaves at least tailSamples of n samples beyond it.
func tailPercentile(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range []float64{50, 90, 99, 99.9} {
		if float64(n)*(100-p)/100 >= tailSamples-1e-9 {
			best, ok = p, true
		}
	}
	return best, ok
}

// percentile is the nearest-rank percentile of sorted.
func percentile(sorted []float64, p float64) float64 {
	k := int(math.Ceil(p / 100 * float64(len(sorted))))
	if k < 1 {
		k = 1
	}
	return sorted[k-1]
}
