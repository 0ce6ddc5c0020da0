// Package report implements the run-manifest and analysis layer behind
// the bbreport CLI: every sweep that writes CSVs also writes a
// manifest.json describing exactly what produced them (tool, experiment,
// deterministic knobs, output hashes) plus a session.json with the
// volatile facts of that one invocation (parallelism, wall time).
//
// The split is deliberate: the manifest contains only fields that are a
// pure function of the experiment's identity, so two runs of the same
// sweep at different -parallel settings produce byte-identical
// manifest.json files — the repo's determinism checks diff them — while
// session.json absorbs everything that legitimately differs between
// invocations. Every tool writes its run directory through one RunDir,
// which hashes each output as it streams to disk.
package report

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// ManifestName and SessionName are the fixed file names written next to a
// sweep's CSV outputs.
const (
	ManifestName = "manifest.json"
	SessionName  = "session.json"
)

// SeedRule documents how every sweep cell derives its stream seed; it is
// recorded in the manifest so an archived run directory is replayable
// from its manifest alone.
const SeedRule = "fnv1a-64(design, bench) per cell (runner.Seed)"

// OutputFile is one artifact the sweep wrote, with its content hash.
type OutputFile struct {
	Name   string `json:"name"`   // file name relative to the run directory
	Kind   string `json:"kind"`   // schema family: runs, timeline, latency, table, sweep, alerts, trace
	Bytes  int64  `json:"bytes"`  // file size
	SHA256 string `json:"sha256"` // hex content hash
}

// Manifest describes one run directory. Every field is deterministic: a
// pure function of (tool, experiment, flags, toolchain), never of
// scheduling, parallelism or the clock.
type Manifest struct {
	Tool           string            `json:"tool"`       // producing binary, e.g. "bbrepro"
	Experiment     string            `json:"experiment"` // e.g. "fig8"
	GoVersion      string            `json:"go_version"`
	Scale          uint64            `json:"scale"`
	Accesses       uint64            `json:"accesses"`
	TelemetryEpoch uint64            `json:"telemetry_epoch"`
	SeedRule       string            `json:"seed_rule"`
	Flags          map[string]string `json:"flags,omitempty"` // other deterministic flags
	Outputs        []OutputFile      `json:"outputs"`
}

// Session holds the volatile facts of one invocation — everything that
// may differ between two byte-identical runs of the same experiment.
type Session struct {
	Parallel int    `json:"parallel"`
	CPUs     int    `json:"cpus"`
	Started  string `json:"started"` // RFC 3339
	WallMS   int64  `json:"wall_ms"`

	// Service correlation, stamped by bbserve so a run directory can be
	// traced back to the originating request: the content-addressed job
	// ID and the client's optional Idempotency-Key header. Volatile by
	// definition — the same deterministic results can be produced by many
	// requests — so they live here, not in the manifest.
	JobID          string `json:"job_id,omitempty"`
	IdempotencyKey string `json:"idempotency_key,omitempty"`
}

// New returns a manifest for one experiment, stamping the toolchain and
// seed rule.
func New(tool, experiment string, scale, accesses, telemetryEpoch uint64) *Manifest {
	return &Manifest{
		Tool:           tool,
		Experiment:     experiment,
		GoVersion:      runtime.Version(),
		Scale:          scale,
		Accesses:       accesses,
		TelemetryEpoch: telemetryEpoch,
		SeedRule:       SeedRule,
	}
}

// HashFile returns the hex SHA-256 of path's contents and its size.
func HashFile(path string) (string, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", 0, err
	}
	defer f.Close()
	h := sha256.New()
	n, err := io.Copy(h, f)
	if err != nil {
		return "", 0, err
	}
	return hex.EncodeToString(h.Sum(nil)), n, nil
}

// marshal renders v as stable, human-diffable JSON with a trailing
// newline. encoding/json sorts map keys, so the bytes are deterministic.
func marshal(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// write stores the manifest as dir/manifest.json with outputs sorted by
// name, so the bytes do not depend on the order experiments ran.
func (m *Manifest) write(dir string) error {
	sort.Slice(m.Outputs, func(i, j int) bool { return m.Outputs[i].Name < m.Outputs[j].Name })
	b, err := marshal(m)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, ManifestName), b, 0o644)
}

// write stores the session as dir/session.json.
func (s *Session) write(dir string) error {
	b, err := marshal(s)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, SessionName), b, 0o644)
}

// ReadManifest loads dir/manifest.json.
func ReadManifest(dir string) (*Manifest, error) {
	b, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("manifest: %s: %w", dir, err)
	}
	return &m, nil
}

// ReadSession loads dir/session.json; a missing file is not an error
// (archived run dirs may strip it), returning (nil, nil).
func ReadSession(dir string) (*Session, error) {
	b, err := os.ReadFile(filepath.Join(dir, SessionName))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var s Session
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("session: %s: %w", dir, err)
	}
	return &s, nil
}

// Verify re-hashes every manifest output under dir and returns one error
// per missing or tampered file (nil when everything matches).
func (m *Manifest) Verify(dir string) []error {
	var errs []error
	for _, o := range m.Outputs {
		sum, n, err := HashFile(filepath.Join(dir, o.Name))
		if err != nil {
			errs = append(errs, fmt.Errorf("verify %s: %w", o.Name, err))
			continue
		}
		if n != o.Bytes {
			errs = append(errs, fmt.Errorf("verify %s: size %d, manifest says %d", o.Name, n, o.Bytes))
			continue
		}
		if sum != o.SHA256 {
			errs = append(errs, fmt.Errorf("verify %s: sha256 %s, manifest says %s", o.Name, sum, o.SHA256))
		}
	}
	return errs
}
