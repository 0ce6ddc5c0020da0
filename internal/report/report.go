package report

import (
	"fmt"
	"io"
	"math"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/alert"
	"repro/internal/ckpt"
)

// Run is one loaded run directory: its manifest, optional session, and
// whichever CSV outputs the manifest lists.
type Run struct {
	Dir      string
	Name     string // base name of the directory; the report's run label
	Manifest *Manifest
	Session  *Session // nil when session.json is absent

	Runs     []RunRow
	Timeline []TimelineRow
	Latency  []LatencyRow

	// Alerts is the run's recorded alerts.json (rules + the alerts the
	// producer evaluated live), nil when the manifest lists none.
	Alerts *alert.Report

	// Checkpoint is the run's crash-safety journal when one exists (nil
	// otherwise). It is deliberately not a manifest output — its record
	// order differs between interrupted and clean runs of the same sweep
	// — so it loads by its fixed name.
	Checkpoint *ckpt.Loaded
}

// LoadRun loads one run directory. The manifest is the source of truth
// for which outputs exist and what schema family each belongs to.
func LoadRun(dir string) (*Run, error) {
	m, err := ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	sess, err := ReadSession(dir)
	if err != nil {
		return nil, err
	}
	run := &Run{Dir: dir, Name: filepath.Base(filepath.Clean(dir)), Manifest: m, Session: sess}
	for _, o := range m.Outputs {
		path := filepath.Join(dir, o.Name)
		switch o.Kind {
		case "runs":
			if run.Runs, err = readRuns(path); err != nil {
				return nil, err
			}
		case "timeline":
			if run.Timeline, err = readTimeline(path); err != nil {
				return nil, err
			}
		case "latency":
			if run.Latency, err = readLatency(path); err != nil {
				return nil, err
			}
		case "alerts":
			rep, err := alert.ReadJSONFile(path)
			if err != nil {
				return nil, err
			}
			run.Alerts = &rep
		}
	}
	if run.Checkpoint, err = ckpt.Load(dir); err != nil {
		return nil, fmt.Errorf("%s: %w", dir, err)
	}
	return run, nil
}

// Options steer report rendering.
type Options struct {
	// Session includes the volatile session.json facts (wall time,
	// parallelism). Off by default so the Markdown for a deterministic
	// sweep is byte-identical across invocations — the determinism checks
	// diff it.
	Session bool
	// RuleSet, when non-nil, replaces the built-in alert.Defaults() rules
	// (e.g. with a set loaded from a -rules file).
	RuleSet *alert.RuleSet
}

// ruleSet resolves the effective rule set for these options.
func (o Options) ruleSet() alert.RuleSet {
	if o.RuleSet != nil {
		return *o.RuleSet
	}
	return alert.Defaults()
}

// designAgg is the per-design rollup of a runs CSV.
type designAgg struct {
	design    string
	benches   int
	ipcGeo    float64
	mpkiMean  float64
	hbmShare  float64
	modeSw    uint64
	pageMigs  uint64
	evictions uint64
}

// aggregate rolls runs.csv up per design, designs sorted by name.
func aggregate(rows []RunRow) []designAgg {
	byDesign := map[string][]RunRow{}
	for _, r := range rows {
		byDesign[r.Design] = append(byDesign[r.Design], r)
	}
	names := make([]string, 0, len(byDesign))
	for d := range byDesign {
		names = append(names, d)
	}
	sort.Strings(names)
	out := make([]designAgg, 0, len(names))
	for _, d := range names {
		rs := byDesign[d]
		a := designAgg{design: d, benches: len(rs)}
		logSum, mpki := 0.0, 0.0
		var hbm, total uint64
		for _, r := range rs {
			logSum += math.Log(math.Max(r.IPC, 1e-12))
			mpki += r.MPKI
			hbm += r.ServedHBM
			total += r.ServedHBM + r.ServedDRAM
			a.modeSw += r.ModeSwitches
			a.pageMigs += r.PageMigs
			a.evictions += r.Evictions
		}
		a.ipcGeo = math.Exp(logSum / float64(len(rs)))
		a.mpkiMean = mpki / float64(len(rs))
		if total > 0 {
			a.hbmShare = float64(hbm) / float64(total)
		}
		out = append(out, a)
	}
	return out
}

func f3(v float64) string { return strconv.FormatFloat(v, 'f', 3, 64) }
func f1(v float64) string { return strconv.FormatFloat(v, 'f', 1, 64) }

// WriteMarkdown renders one report over the given runs. Output is a pure
// function of the run directories' contents (plus opts), rendered in
// argument order with all inner tables sorted — byte-identical across
// invocations and -parallel settings.
func WriteMarkdown(w io.Writer, runs []*Run, opts Options) error {
	var b strings.Builder
	b.WriteString("# Bumblebee run report\n")
	for _, run := range runs {
		writeRunSection(&b, run, opts)
	}
	if len(runs) > 1 {
		writeDeltas(&b, runs)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func writeRunSection(b *strings.Builder, run *Run, opts Options) {
	m := run.Manifest
	fmt.Fprintf(b, "\n## Run `%s` — %s/%s\n\n", run.Name, m.Tool, m.Experiment)
	fmt.Fprintf(b, "| field | value |\n|---|---|\n")
	fmt.Fprintf(b, "| go | %s |\n", m.GoVersion)
	fmt.Fprintf(b, "| scale | 1/%d |\n", m.Scale)
	fmt.Fprintf(b, "| accesses/run | %d |\n", m.Accesses)
	fmt.Fprintf(b, "| telemetry epoch | %d |\n", m.TelemetryEpoch)
	fmt.Fprintf(b, "| seed rule | %s |\n", m.SeedRule)
	flagNames := make([]string, 0, len(m.Flags))
	for k := range m.Flags {
		flagNames = append(flagNames, k)
	}
	sort.Strings(flagNames)
	for _, k := range flagNames {
		fmt.Fprintf(b, "| flag -%s | %s |\n", k, m.Flags[k])
	}
	fmt.Fprintf(b, "| outputs | %d files |\n", len(m.Outputs))
	if opts.Session && run.Session != nil {
		s := run.Session
		fmt.Fprintf(b, "| session | parallel=%d cpus=%d wall=%dms started=%s |\n",
			s.Parallel, s.CPUs, s.WallMS, s.Started)
	}

	if len(run.Runs) > 0 {
		fmt.Fprintf(b, "\n### Design summary\n\n")
		fmt.Fprintf(b, "| design | benches | geomean IPC | mean MPKI | HBM serve %% | mode switches | page migrations | evictions |\n")
		fmt.Fprintf(b, "|---|---|---|---|---|---|---|---|\n")
		for _, a := range aggregate(run.Runs) {
			fmt.Fprintf(b, "| %s | %d | %s | %s | %s | %d | %d | %d |\n",
				a.design, a.benches, f3(a.ipcGeo), f1(a.mpkiMean), f1(a.hbmShare*100),
				a.modeSw, a.pageMigs, a.evictions)
		}
	}

	if len(run.Latency) > 0 {
		// Per (design, tier): counts summed, quantiles worst-cased over
		// benches — the question the table answers is "how bad does this
		// tier get for this design".
		type key struct{ design, tier string }
		agg := map[key]*LatencyRow{}
		for _, l := range run.Latency {
			if l.Count == 0 {
				continue
			}
			k := key{l.Design, l.Tier}
			a := agg[k]
			if a == nil {
				cp := l
				agg[k] = &cp
				continue
			}
			a.Count += l.Count
			for _, pair := range [][2]*uint64{{&a.P50, &l.P50}, {&a.P95, &l.P95}, {&a.P99, &l.P99}, {&a.Max, &l.Max}} {
				if *pair[1] > *pair[0] {
					*pair[0] = *pair[1]
				}
			}
		}
		keys := make([]key, 0, len(agg))
		for k := range agg {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].design != keys[j].design {
				return keys[i].design < keys[j].design
			}
			return keys[i].tier < keys[j].tier
		})
		fmt.Fprintf(b, "\n### Tier latency (cycles, worst bench per design)\n\n")
		fmt.Fprintf(b, "| design | tier | requests | p50 | p95 | p99 | max |\n|---|---|---|---|---|---|---|\n")
		for _, k := range keys {
			a := agg[k]
			fmt.Fprintf(b, "| %s | %s | %d | %d | %d | %d | %d |\n",
				k.design, k.tier, a.Count, a.P50, a.P95, a.P99, a.Max)
		}
	}

	writeResilience(b, run.Checkpoint)

	flags := AnalyzeRules(run, opts.ruleSet())
	fmt.Fprintf(b, "\n### Anomalies\n\n")
	if len(flags) == 0 {
		fmt.Fprintf(b, "none detected.\n")
		return
	}
	for _, f := range flags {
		fmt.Fprintf(b, "- **%s** `%s/%s`: %s\n", f.Rule, f.Design, f.Bench, f.Detail)
	}
}

// writeResilience renders the crash-safety journal, when one exists:
// how many cells are checkpointed, the shard, and whether a torn tail
// was dropped on load. Like the rest of the report it is a pure function
// of the directory's bytes.
func writeResilience(b *strings.Builder, l *ckpt.Loaded) {
	if l == nil {
		return
	}
	fmt.Fprintf(b, "\n### Resilience\n\n")
	shard := l.Meta.Shard
	if shard == "" {
		shard = "—"
	}
	fmt.Fprintf(b, "| field | value |\n|---|---|\n")
	fmt.Fprintf(b, "| checkpointed cells | %d |\n", len(l.Records))
	fmt.Fprintf(b, "| shard | %s |\n", shard)
	if l.DroppedTail > 0 {
		fmt.Fprintf(b, "| torn tail dropped on load | %d line(s) |\n", l.DroppedTail)
	}
}

// writeDeltas renders the cross-run comparison: per design, geomean IPC
// in every run and the relative change against the first run.
func writeDeltas(b *strings.Builder, runs []*Run) {
	fmt.Fprintf(b, "\n## Cross-run deltas (geomean IPC, vs `%s`)\n\n", runs[0].Name)
	ipc := make([]map[string]float64, len(runs))
	designSet := map[string]bool{}
	for i, run := range runs {
		ipc[i] = map[string]float64{}
		for _, a := range aggregate(run.Runs) {
			ipc[i][a.design] = a.ipcGeo
			designSet[a.design] = true
		}
	}
	designs := make([]string, 0, len(designSet))
	for d := range designSet {
		designs = append(designs, d)
	}
	sort.Strings(designs)
	fmt.Fprintf(b, "| design |")
	for _, run := range runs {
		fmt.Fprintf(b, " %s |", run.Name)
	}
	fmt.Fprintf(b, " delta |\n|---|")
	for range runs {
		fmt.Fprintf(b, "---|")
	}
	fmt.Fprintf(b, "---|\n")
	for _, d := range designs {
		fmt.Fprintf(b, "| %s |", d)
		for i := range runs {
			if v, ok := ipc[i][d]; ok {
				fmt.Fprintf(b, " %s |", f3(v))
			} else {
				fmt.Fprintf(b, " — |")
			}
		}
		base, okB := ipc[0][d]
		last, okL := ipc[len(runs)-1][d]
		if okB && okL && base > 0 {
			fmt.Fprintf(b, " %s%% |\n", f1((last/base-1)*100))
		} else {
			fmt.Fprintf(b, " — |\n")
		}
	}
}
