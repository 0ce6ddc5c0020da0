package report

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/runner"
)

// Shard merge: a sweep split with -shard k/n writes n run directories,
// each holding every n-th cell of the global sweep (cell i belongs to
// shard i%n+1, at local position i/n). Merge verifies the shards and
// reconstructs the run directory the unsharded sweep would have written,
// byte for byte: global row group i comes from shard i%n at local group
// position i/n.
//
// Merge trusts nothing: every shard's outputs are re-hashed against its
// manifest, the shard set must cover 1..n exactly once, and all
// manifests must agree on every deterministic field except the shard
// flag itself. Any digest conflict, coverage gap or identity mismatch
// refuses the merge — a silent bad merge would poison every downstream
// comparison.

// MergeResult summarizes one verified merge.
type MergeResult struct {
	Shards int
	Files  []string // merged output names, sorted
	Rows   int      // total data rows written across all files
}

// mergeShard is one loaded, verified shard directory.
type mergeShard struct {
	dir string
	m   *Manifest
	s   runner.Shard
}

// Merge verifies shardDirs and writes the reconstructed run directory
// (CSVs plus a merged manifest.json with the shard flag dropped) to dst.
func Merge(dst string, shardDirs []string) (*MergeResult, error) {
	if len(shardDirs) < 2 {
		return nil, fmt.Errorf("merge: need at least 2 shard directories, got %d", len(shardDirs))
	}
	shards := make([]mergeShard, 0, len(shardDirs))
	for _, dir := range shardDirs {
		m, err := ReadManifest(dir)
		if err != nil {
			return nil, fmt.Errorf("merge: %w", err)
		}
		if errs := m.Verify(dir); len(errs) > 0 {
			return nil, fmt.Errorf("merge: shard %s fails verification (digest conflict or missing output): %v", dir, errs[0])
		}
		spec, ok := m.Flags["shard"]
		if !ok {
			return nil, fmt.Errorf("merge: %s is not a shard run (no shard flag in manifest)", dir)
		}
		s, err := runner.ParseShard(spec)
		if err != nil {
			return nil, fmt.Errorf("merge: %s: %w", dir, err)
		}
		shards = append(shards, mergeShard{dir: dir, m: m, s: s})
	}

	// Coverage: the dirs must be shards 1..n of the same n, each exactly
	// once. A duplicate index with different content is a digest conflict
	// (two runs claiming the same cells disagree); with identical content
	// it is still refused — the set cannot also cover the missing index.
	n := shards[0].s.N
	if len(shards) != n {
		return nil, fmt.Errorf("merge: got %d directories for a %d-way shard split", len(shards), n)
	}
	byK := make(map[int]*mergeShard, n)
	for i := range shards {
		sh := &shards[i]
		if sh.s.N != n {
			return nil, fmt.Errorf("merge: %s is shard %d/%d, others are /%d", sh.dir, sh.s.K, sh.s.N, n)
		}
		if prev, dup := byK[sh.s.K]; dup {
			if outputsEqual(prev.m.Outputs, sh.m.Outputs) {
				return nil, fmt.Errorf("merge: shard %d/%d appears twice (%s, %s)", sh.s.K, n, prev.dir, sh.dir)
			}
			return nil, fmt.Errorf("merge: digest conflict: %s and %s both claim shard %d/%d with different outputs", prev.dir, sh.dir, sh.s.K, n)
		}
		byK[sh.s.K] = sh
	}
	ordered := make([]mergeShard, 0, n)
	for k := 1; k <= n; k++ {
		sh, ok := byK[k]
		if !ok {
			return nil, fmt.Errorf("merge: coverage gap: shard %d/%d missing", k, n)
		}
		ordered = append(ordered, *sh)
	}

	// Identity: all shards must come from the same sweep.
	m0 := ordered[0].m
	for _, sh := range ordered[1:] {
		if err := sameSweep(m0, sh.m); err != nil {
			return nil, fmt.Errorf("merge: %s vs %s: %w", ordered[0].dir, sh.dir, err)
		}
	}
	kinds, err := sharedOutputs(ordered)
	if err != nil {
		return nil, err
	}

	rd, err := NewRunDir(dst, &Manifest{
		Tool:           m0.Tool,
		Experiment:     m0.Experiment,
		GoVersion:      m0.GoVersion,
		Scale:          m0.Scale,
		Accesses:       m0.Accesses,
		TelemetryEpoch: m0.TelemetryEpoch,
		SeedRule:       m0.SeedRule,
		Flags:          flagsWithoutShard(m0.Flags),
	})
	if err != nil {
		return nil, fmt.Errorf("merge: %w", err)
	}
	res := &MergeResult{Shards: n}
	names := make([]string, 0, len(kinds))
	for name := range kinds {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rows, err := mergeCSV(rd, name, kinds[name], ordered)
		if err != nil {
			return nil, err
		}
		res.Rows += rows
		res.Files = append(res.Files, name)
	}
	if err := rd.Close(nil); err != nil {
		return nil, err
	}
	return res, nil
}

func outputsEqual(a, b []OutputFile) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sameSweep checks every deterministic manifest field except the shard
// flag itself.
func sameSweep(a, b *Manifest) error {
	switch {
	case a.Tool != b.Tool:
		return fmt.Errorf("tool %q vs %q", a.Tool, b.Tool)
	case a.Experiment != b.Experiment:
		return fmt.Errorf("experiment %q vs %q", a.Experiment, b.Experiment)
	case a.GoVersion != b.GoVersion:
		return fmt.Errorf("go version %q vs %q", a.GoVersion, b.GoVersion)
	case a.Scale != b.Scale:
		return fmt.Errorf("scale %d vs %d", a.Scale, b.Scale)
	case a.Accesses != b.Accesses:
		return fmt.Errorf("accesses %d vs %d", a.Accesses, b.Accesses)
	case a.TelemetryEpoch != b.TelemetryEpoch:
		return fmt.Errorf("telemetry epoch %d vs %d", a.TelemetryEpoch, b.TelemetryEpoch)
	case a.SeedRule != b.SeedRule:
		return fmt.Errorf("seed rule %q vs %q", a.SeedRule, b.SeedRule)
	}
	fa, fb := flagsWithoutShard(a.Flags), flagsWithoutShard(b.Flags)
	if len(fa) != len(fb) {
		return fmt.Errorf("flag sets differ")
	}
	for k, v := range fa {
		if fb[k] != v {
			return fmt.Errorf("flag -%s %q vs %q", k, v, fb[k])
		}
	}
	return nil
}

func flagsWithoutShard(flags map[string]string) map[string]string {
	var out map[string]string
	for k, v := range flags {
		if k == "shard" {
			continue
		}
		if out == nil {
			out = map[string]string{}
		}
		out[k] = v
	}
	return out
}

// sharedOutputs returns the name→kind map every shard must agree on.
// A file present in one shard but not another means the shards ran with
// different flags no matter what the manifests claim.
func sharedOutputs(shards []mergeShard) (map[string]string, error) {
	kinds := map[string]string{}
	for _, o := range shards[0].m.Outputs {
		kinds[o.Name] = o.Kind
	}
	for _, sh := range shards[1:] {
		if len(sh.m.Outputs) != len(kinds) {
			return nil, fmt.Errorf("merge: %s lists %d outputs, %s lists %d", sh.dir, len(sh.m.Outputs), shards[0].dir, len(kinds))
		}
		for _, o := range sh.m.Outputs {
			kind, ok := kinds[o.Name]
			if !ok {
				return nil, fmt.Errorf("merge: output %s only in %s", o.Name, sh.dir)
			}
			if kind != o.Kind {
				return nil, fmt.Errorf("merge: output %s is %q in %s, %q in %s", o.Name, kind, shards[0].dir, o.Kind, sh.dir)
			}
		}
	}
	for name, kind := range kinds {
		if !mergeable(kind) {
			return nil, fmt.Errorf("merge: cannot merge %s (kind %q): only per-run outputs shard; rebuild tables from the merged runs CSV", name, kind)
		}
	}
	return kinds, nil
}

// mergeCSV round-robin-reconstructs one CSV across the ordered shards
// and writes it into rd under kind.
// Rows are grouped by run — consecutive rows sharing (design, bench) —
// because the timeline and latency schemas emit several rows per run;
// global run group i comes from shard i%n at local position i/n.
func mergeCSV(rd *RunDir, name, kind string, shards []mergeShard) (int, error) {
	n := len(shards)
	var header []string
	groups := make([][][][]string, n) // per shard: ordered run groups, each a row slice
	for i, sh := range shards {
		recs, err := readAll(filepath.Join(sh.dir, name))
		if err != nil {
			return 0, fmt.Errorf("merge: %w", err)
		}
		if header == nil {
			header = recs[0]
		} else if !rowEqual(header, recs[0]) {
			return 0, fmt.Errorf("merge: %s: header differs between %s and %s", name, shards[0].dir, sh.dir)
		}
		groups[i], err = groupRuns(recs[0], recs[1:])
		if err != nil {
			return 0, fmt.Errorf("merge: %s in %s: %w", name, sh.dir, err)
		}
	}
	total := 0
	for _, g := range groups {
		total += len(g)
	}
	out := make([][]string, 0, total+1)
	out = append(out, header)
	for i := 0; i < total; i++ {
		g := groups[i%n]
		if i/n >= len(g) {
			return 0, fmt.Errorf("merge: %s: coverage gap: shard %d/%d holds %d run groups, global row group %d needs %d",
				name, i%n+1, n, len(g), i, i/n+1)
		}
		out = append(out, g[i/n]...)
	}
	if err := rd.Write(name, kind, func(w io.Writer) error {
		return csv.NewWriter(w).WriteAll(out)
	}); err != nil {
		return 0, err
	}
	return len(out) - 1, nil
}

func rowEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// groupRuns splits data rows into consecutive groups sharing the
// (design, bench) identity columns — one group per sweep cell.
func groupRuns(header []string, rows [][]string) ([][][]string, error) {
	di, bi := -1, -1
	for i, name := range header {
		switch name {
		case "design":
			di = i
		case "bench":
			bi = i
		}
	}
	if di < 0 {
		return nil, fmt.Errorf("no design column to group runs by")
	}
	key := func(r []string) string {
		k := r[di]
		if bi >= 0 && bi < len(r) {
			k += "\x00" + r[bi]
		}
		return k
	}
	var out [][][]string
	last := ""
	for _, r := range rows {
		k := key(r)
		if len(out) == 0 || k != last {
			out = append(out, nil)
			last = k
		}
		out[len(out)-1] = append(out[len(out)-1], r)
	}
	return out, nil
}

func readAll(path string) ([][]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recs, err := csv.NewReader(f).ReadAll()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", filepath.Base(path), err)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("%s: empty", filepath.Base(path))
	}
	return recs, nil
}
