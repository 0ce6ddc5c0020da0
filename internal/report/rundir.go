package report

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// WriteFile creates path and streams fn into it. The close error is
// checked: a full disk surfaces at close time, and swallowing it would
// report a truncated file as success.
func WriteFile(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// RunDir is the one writer of a run directory: every output goes through
// Write, which hashes the bytes as they stream to disk and records them in
// the manifest, and Close writes manifest.json and session.json last.
//
// A nil *RunDir discards everything without calling fn, so a tool run
// without an output directory needs no checks of its own.
type RunDir struct {
	dir string
	m   *Manifest
}

// NewRunDir creates dir if needed and returns its writer; m is the
// directory's identity and collects the outputs.
func NewRunDir(dir string, m *Manifest) (*RunDir, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &RunDir{dir: dir, m: m}, nil
}

// Write creates dir/name, streams fn into it while hashing, and records
// the file under kind. A failing fn records nothing. A shard directory
// (one whose manifest carries a shard flag) refuses every kind Merge
// cannot reassemble, so no shard set is ever unmergeable.
func (d *RunDir) Write(name, kind string, fn func(io.Writer) error) error {
	if d == nil {
		return nil
	}
	if spec, ok := d.m.Flags["shard"]; ok && !mergeable(kind) {
		return fmt.Errorf("run dir %s: shard %s cannot hold %s (kind %q): only per-run outputs shard", d.dir, spec, name, kind)
	}
	hw := &hashWriter{h: sha256.New()}
	if err := WriteFile(filepath.Join(d.dir, name), func(w io.Writer) error {
		return fn(io.MultiWriter(w, hw))
	}); err != nil {
		return err
	}
	d.m.Outputs = append(d.m.Outputs, OutputFile{Name: name, Kind: kind, Bytes: hw.n, SHA256: hex.EncodeToString(hw.h.Sum(nil))})
	return nil
}

// Close writes manifest.json and then, when s is non-nil, session.json.
func (d *RunDir) Close(s *Session) error {
	if d == nil {
		return nil
	}
	if err := d.m.write(d.dir); err != nil {
		return err
	}
	if s == nil {
		return nil
	}
	return s.write(d.dir)
}

// mergeable reports whether Merge can reassemble an output kind from
// shards: only the per-run schemas, whose rows partition by sweep cell.
// Tables, sweeps and alert sets aggregate over the full matrix and are
// rebuilt from the merged runs instead.
func mergeable(kind string) bool {
	switch kind {
	case "runs", "timeline", "latency":
		return true
	}
	return false
}

// hashWriter hashes and counts the bytes written through it.
type hashWriter struct {
	h hash.Hash
	n int64
}

func (w *hashWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return w.h.Write(p)
}

// NewSession returns the session record of an invocation that started at
// start with the given worker parallelism, its wall time measured now.
func NewSession(parallel int, start time.Time) *Session {
	return &Session{
		Parallel: parallel,
		CPUs:     runtime.NumCPU(),
		Started:  start.UTC().Format(time.RFC3339),
		WallMS:   time.Since(start).Milliseconds(),
	}
}
