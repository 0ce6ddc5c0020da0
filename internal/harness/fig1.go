package harness

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/metrics"
	"repro/internal/runner"
	"repro/internal/trace"
)

// Figure 1 methodology: run a workload's LLC-miss stream into a 1 GB
// (scaled) fully-utilized cHBM managed at a given cache-line size with
// LRU replacement, and for every line evicted record the average access
// count of its 64 B words ("N represents the average access number for
// each 64B data in different sizes of cache lines"). The paper buckets N
// into <5, 5-10, 10-15, 15-20, >=20 for mcf, wrf and xz at line sizes
// 64 B .. 64 KB.

// Fig1LineSizes are the swept cHBM line sizes.
var Fig1LineSizes = []uint64{64, 256, 1 * addr.KiB, 4 * addr.KiB, 16 * addr.KiB, 64 * addr.KiB}

// Fig1Buckets labels the histogram buckets.
var Fig1Buckets = []string{"N<5", "5<=N<10", "10<=N<15", "15<=N<20", "N>=20"}

// Fig1Benchmarks are the three locality classes the paper shows.
var Fig1Benchmarks = []string{"mcf", "wrf", "xz"}

// fig1Cache is a fully-associative-by-set LRU cache of capacity bytes
// with per-64B-word access counting; eviction observes the line's mean
// word access count.
type fig1Cache struct {
	lineBytes uint64
	sets      int
	ways      int
	lines     [][]fig1Line
	tick      uint64
	hist      *metrics.Histogram
}

type fig1Line struct {
	tag     uint64
	valid   bool
	lruTick uint64
	touches uint64 // total word touches while resident
}

func newFig1Cache(capacity, lineBytes uint64, hist *metrics.Histogram) *fig1Cache {
	lines := capacity / lineBytes
	ways := 16
	if lines < uint64(ways) {
		ways = int(lines)
	}
	sets := int(lines) / ways
	if sets == 0 {
		sets = 1
	}
	c := &fig1Cache{lineBytes: lineBytes, sets: sets, ways: ways, hist: hist}
	c.lines = make([][]fig1Line, sets)
	for i := range c.lines {
		c.lines[i] = make([]fig1Line, ways)
	}
	return c
}

func (c *fig1Cache) wordsPerLine() float64 { return float64(c.lineBytes / 64) }

func (c *fig1Cache) access(a addr.Addr) {
	c.tick++
	lineNo := uint64(a) / c.lineBytes
	set := int(lineNo % uint64(c.sets))
	row := c.lines[set]
	for w := range row {
		if row[w].valid && row[w].tag == lineNo {
			row[w].touches++
			row[w].lruTick = c.tick
			return
		}
	}
	// Miss: evict LRU, observing its access count.
	vi := 0
	for w := range row {
		if !row[w].valid {
			vi = w
			break
		}
		if row[w].lruTick < row[vi].lruTick {
			vi = w
		}
	}
	if row[vi].valid {
		c.hist.Observe(float64(row[vi].touches) / c.wordsPerLine())
	}
	row[vi] = fig1Line{tag: lineNo, valid: true, lruTick: c.tick, touches: 1}
}

// drain flushes every resident line into the histogram.
func (c *fig1Cache) drain() {
	for _, row := range c.lines {
		for _, l := range row {
			if l.valid {
				c.hist.Observe(float64(l.touches) / c.wordsPerLine())
			}
		}
	}
}

// Fig1Result is the access-number distribution for one benchmark and one
// line size.
type Fig1Result struct {
	Bench     string
	LineBytes uint64
	Shares    []float64 // one share per Fig1Buckets entry
}

// Fig1 reproduces Figure 1 on the Table II benchmarks names; nil means
// the paper's Fig1Benchmarks. Each (benchmark, line-size) cell owns its
// cache model, hierarchy and generator, so the matrix fans out across
// the harness worker pool with no shared state.
func (h *Harness) Fig1(names []string) ([]Fig1Result, error) {
	if len(names) == 0 {
		names = Fig1Benchmarks
	}
	sys := h.System()
	// Fig1 cells run a bespoke cache model, not Harness.Run, so they
	// report their own completions to the sweep tracker.
	cells := grid(names, Fig1LineSizes, func(ni, li int) cell {
		name, label := names[ni], sizeLabel(Fig1LineSizes[li])
		return cell{ID: cellID("fig1", name, label), Seed: runner.Seed("fig1", name, label)}
	})
	out, err := sweepCells(h, cells, nil,
		func(i int) (Fig1Result, error) {
			name, ls := names[i/len(Fig1LineSizes)], Fig1LineSizes[i%len(Fig1LineSizes)]
			b, err := trace.ByName(name)
			if err != nil {
				return Fig1Result{}, err
			}
			b = b.Scale(h.Scale)
			hist := metrics.NewHistogram(5, 10, 15, 20)
			chbm := newFig1Cache(sys.HBM.CapacityBytes, ls, hist)
			hier, err := cache.NewHierarchy(sys.Caches)
			if err != nil {
				return Fig1Result{}, err
			}
			gen, err := trace.NewSynthetic(b.Profile)
			if err != nil {
				return Fig1Result{}, err
			}
			var accesses uint64
			for n := uint64(0); n < h.Accesses; n++ {
				acc, ok := gen.Next()
				if !ok {
					break
				}
				accesses++
				if r := hier.Access(acc.Addr, acc.Write); r.HitLevel == -1 {
					chbm.access(acc.Addr)
				}
			}
			chbm.drain()
			h.Obs.CellDone("fig1-chbm", name, accesses, nil, nil)
			h.log("fig1", "bench", name, "line_bytes", ls)
			return Fig1Result{Bench: name, LineBytes: ls, Shares: hist.Shares()}, nil
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Fig1Table renders the results like the paper's stacked bars.
func Fig1Table(results []Fig1Result) string {
	out := "== Figure 1: access numbers per 64B word before cHBM eviction ==\n"
	out += fmt.Sprintf("%-6s %-8s", "bench", "line")
	for _, b := range Fig1Buckets {
		out += fmt.Sprintf("%10s", b)
	}
	out += "\n"
	for _, r := range results {
		out += fmt.Sprintf("%-6s %-8s", r.Bench, sizeLabel(r.LineBytes))
		for _, s := range r.Shares {
			out += fmt.Sprintf("%9.1f%%", s*100)
		}
		out += "\n"
	}
	return out
}

func sizeLabel(b uint64) string {
	if b >= addr.KiB {
		return fmt.Sprintf("%dKB", b/addr.KiB)
	}
	return fmt.Sprintf("%dB", b)
}
