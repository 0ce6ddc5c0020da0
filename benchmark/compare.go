package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// Verdicts of -compare.
const (
	better     = "better"
	worse      = "worse"
	unchanged  = "unchanged"
	unresolved = "unresolved"
)

// verdict judges one end-to-end metric of the parent (old) against the
// change (new). A change beyond the bound is better or worse; when the
// parent's own interquartile range is wider than the bound the pair is
// unresolved, unless every new sample beats every old one.
func verdict(def metricDef, old, new summary) string {
	if old.N == 0 || new.N == 0 {
		return unresolved
	}
	sign := 1.0
	if def.Better == "higher" {
		sign = -1
	}
	worsening := sign * (new.Median - old.Median)
	allowed := def.Bound * math.Abs(old.Median)
	if def.Name == "setup_s" && allowed < setupFloorS {
		allowed = setupFloorS
	}
	if old.Median != 0 && old.spread() > allowed/math.Abs(old.Median) {
		if allBetter(sign, old.Samples, new.Samples) {
			return better
		}
		return unresolved
	}
	switch {
	case worsening > allowed:
		return worse
	case -worsening > allowed:
		return better
	}
	return unchanged
}

// allBetter reports whether every new sample beats every old sample;
// sign is +1 when lower is better.
func allBetter(sign float64, old, new []float64) bool {
	if len(old) == 0 || len(new) == 0 {
		return false
	}
	for _, o := range old {
		for _, n := range new {
			if sign*n >= sign*o {
				return false
			}
		}
	}
	return true
}

func countVerdict(old, new float64) string {
	switch {
	case new > old:
		return worse
	case new < old:
		return better
	}
	return unchanged
}

func loadResults(path string) (*results, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// runCompare prints one row per workload and end-to-end metric of two
// results files. It exits 1 when any row is worse or a sim_digest moved,
// and 2 when the files cannot be compared.
func runCompare(paths []string, stdout, stderr io.Writer) int {
	if len(paths) != 2 {
		fmt.Fprintln(stderr, "usage: benchmark -compare old.json new.json")
		return 2
	}
	old, err := loadResults(paths[0])
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}
	cur, err := loadResults(paths[1])
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}
	if old.Quick != cur.Quick {
		fmt.Fprintln(stderr, "compare: one file ran with -quick and the other did not")
		return 2
	}
	code := 0
	for _, nw := range cur.Workloads {
		ow := old.workload(nw.Name)
		if ow == nil {
			continue
		}
		switch {
		case ow.Seeded && old.Seed != cur.Seed:
			fmt.Fprintf(stdout, "%s: sim_digest not compared (seeds %d and %d)\n", nw.Name, old.Seed, cur.Seed)
		case ow.SimDigest != nw.SimDigest:
			fmt.Fprintf(stdout, "%s: SIM_DIGEST CHANGED %s -> %s\n", nw.Name, ow.SimDigest, nw.SimDigest)
			code = 1
		}
	}
	if diff := old.Stamp.machineDiff(cur.Stamp); len(diff) > 0 {
		fmt.Fprintf(stderr, "compare: refusing host-time comparison across machines: %s\n", strings.Join(diff, "; "))
		return 2
	}

	fmt.Fprintf(stdout, "%-11s %-15s %34s %34s %6s  %s\n", "workload", "metric", "old median [q1, q3]", "new median [q1, q3]", "bound", "verdict")
	for _, nw := range cur.Workloads {
		ow := old.workload(nw.Name)
		if ow == nil {
			fmt.Fprintf(stdout, "%-11s (not in %s)\n", nw.Name, paths[0])
			continue
		}
		for _, def := range endToEnd {
			o, n := ow.Metrics[def.Name], nw.Metrics[def.Name]
			v := verdict(def, o, n)
			if v == worse {
				code = 1
			}
			fmt.Fprintf(stdout, "%-11s %-15s %34s %34s %5.0f%%  %s\n", nw.Name, def.Name,
				quartileCell(o), quartileCell(n), def.Bound*100, v)
		}
		for _, c := range []struct {
			name     string
			old, new float64
		}{
			{"cells_failed", float64(ow.CellsFailed), float64(nw.CellsFailed)},
			{"fail_ratio", ow.FailRatio, nw.FailRatio},
		} {
			v := countVerdict(c.old, c.new)
			if v == worse {
				code = 1
			}
			fmt.Fprintf(stdout, "%-11s %-15s %34g %34g %6s  %s\n", nw.Name, c.name, c.old, c.new, "any", v)
		}
	}
	return code
}

func quartileCell(s summary) string {
	if s.N == 0 {
		return "-"
	}
	return fmt.Sprintf("%.4g [%.4g, %.4g]", s.Median, s.Q1, s.Q3)
}
