// Package ckpt is the crash-safe progress layer of the sweep engine: an
// append-only checkpoint journal written next to a sweep's CSV outputs,
// recording every completed cell (identity, seed, result digest, and the
// full serialized result) so a killed or OOM'd sweep resumes from where
// it died instead of restarting from zero.
//
// Durability model. Records are framed one per line as
//
//	<crc32-hex8> <json>\n
//
// and written with a single O_APPEND write each, so a SIGKILL at any byte
// leaves at worst one torn record at the tail. The loader validates every
// line's CRC32 and drops the journal's tail from the first bad line on —
// a torn tail costs re-running at most the cells whose records it held,
// never correctness, because cells are deterministic (internal/runner's
// seeding contract) and a re-run reproduces the dropped results exactly.
// The file is fsynced every FsyncEvery appends and at Close, bounding
// post-crash loss the same way.
//
// Identity model. The first line is a version-stamped header carrying
// the sweep's deterministic identity (tool, experiment, scale, accesses,
// telemetry epoch, shard). Resume refuses a journal whose header does
// not match the resuming invocation — a checkpoint from a different
// sweep must never silently poison another's results. A record's key
// names what its cell simulates (the harness hashes the whole spec into
// it), so knobs the header lacks still separate cells. Version 1
// journals keyed cells by figure cell ID; Load refuses them.
package ckpt

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"sync"
)

// Digest is the result digest recorded per cell: SHA-256 hex over the
// serialized payload, the same hash family the run manifest uses for
// output files, so a resumed cell's cached result can be re-verified
// end to end.
func Digest(payload []byte) string {
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:])
}

// FileName is the journal's fixed name inside a run directory.
const FileName = "checkpoint.jsonl"

// Version is the journal format this package writes and the only one it
// reads.
const Version = 2

// magic identifies a bumblebee checkpoint header line.
const magic = "bumblebee-checkpoint"

// ExitResumable is the process exit code meaning "interrupted, progress
// checkpointed, rerun with -resume to continue" — distinct from 1
// (failure) and 2 (usage) so fleet schedulers can requeue instead of
// alerting.
const ExitResumable = 3

// DefaultFsyncEvery is the append-count between fsyncs when the caller
// does not choose one.
const DefaultFsyncEvery = 8

// Meta is the journal header: the deterministic identity of the sweep
// the journal belongs to.
type Meta struct {
	Format         string `json:"format"`  // always the package magic
	Version        int    `json:"version"` // journal format version
	Tool           string `json:"tool"`    // producing binary
	Experiment     string `json:"experiment"`
	Scale          uint64 `json:"scale"`
	Accesses       uint64 `json:"accesses"`
	TelemetryEpoch uint64 `json:"telemetry_epoch"`
	Shard          string `json:"shard,omitempty"` // "k/n" when the run is one shard
}

// stamp fills the fixed header fields.
func (m Meta) stamp() Meta {
	m.Format = magic
	m.Version = Version
	return m
}

// matches reports whether two headers describe the same sweep.
func (m Meta) matches(o Meta) bool {
	return m.Tool == o.Tool && m.Experiment == o.Experiment &&
		m.Scale == o.Scale && m.Accesses == o.Accesses &&
		m.TelemetryEpoch == o.TelemetryEpoch && m.Shard == o.Shard
}

// Record is one completed cell.
type Record struct {
	Cell    string          `json:"cell"`    // content key, e.g. "bumblebee/mcf/6a09e667f3bcc908"; fig1 and mix cells keep "fig1/mcf/64B"-style IDs
	Seed    string          `json:"seed"`    // 0x-hex cell RNG seed (replay identity)
	Digest  string          `json:"digest"`  // SHA-256 hex of Payload
	Payload json.RawMessage `json:"payload"` // the serialized cell result
}

// FormatSeed renders a cell seed the way records store it.
func FormatSeed(seed uint64) string { return fmt.Sprintf("0x%016x", seed) }

// frame renders one journal line: crc32 of the JSON bytes, a space, the
// JSON, a newline.
func frame(js []byte) []byte {
	line := make([]byte, 0, 8+1+len(js)+1)
	line = append(line, fmt.Sprintf("%08x", crc32.ChecksumIEEE(js))...)
	line = append(line, ' ')
	line = append(line, js...)
	line = append(line, '\n')
	return line
}

// parseLine validates one framed line (without trailing newline) and
// returns its JSON bytes.
func parseLine(line []byte) ([]byte, error) {
	if len(line) < 10 || line[8] != ' ' {
		return nil, fmt.Errorf("malformed frame (len %d)", len(line))
	}
	want, err := strconv.ParseUint(string(line[:8]), 16, 32)
	if err != nil {
		return nil, fmt.Errorf("bad crc field: %v", err)
	}
	js := line[9:]
	if got := crc32.ChecksumIEEE(js); got != uint32(want) {
		return nil, fmt.Errorf("crc mismatch: %08x, frame says %08x", got, want)
	}
	return js, nil
}

// Loaded is a journal read back from disk: the good prefix, parsed.
type Loaded struct {
	Meta    Meta
	Records []Record          // good records, file order, duplicates collapsed
	ByCell  map[string]Record // cell -> record (last same-digest duplicate wins)

	// GoodBytes is the length of the validated prefix; Resume truncates
	// the file here before appending, so a torn tail never sits in the
	// middle of a resumed journal.
	GoodBytes int64
	// DroppedTail counts trailing lines discarded for framing/CRC
	// damage; Warning says why (empty when the journal was clean).
	DroppedTail int
	Warning     string
}

// Load reads dir's journal. A missing file is not an error: it returns
// (nil, nil). Damage confined to the tail is recovered by dropping the
// tail (reported via DroppedTail/Warning); structural problems that
// cannot be safely skipped — a bad header, another version, two records
// for one cell with different digests — are errors.
func Load(dir string) (*Loaded, error) {
	path := filepath.Join(dir, FileName)
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	l := &Loaded{ByCell: make(map[string]Record)}
	off := int64(0)
	lineNo := 0
	for len(data) > 0 {
		nl := -1
		for i, b := range data {
			if b == '\n' {
				nl = i
				break
			}
		}
		if nl < 0 {
			// No newline: a torn final record from a mid-write kill.
			l.DroppedTail++
			l.Warning = fmt.Sprintf("journal: dropped torn final record (%d bytes, no newline)", len(data))
			break
		}
		line := data[:nl]
		lineNo++
		js, perr := parseLine(line)
		if perr != nil {
			if lineNo == 1 {
				return nil, fmt.Errorf("journal: %s: header: %v", path, perr)
			}
			// Tail-drop: this record and everything after it is
			// discarded; the cells re-run, which determinism makes safe.
			rest := 1
			for _, b := range data[nl+1:] {
				if b == '\n' {
					rest++
				}
			}
			l.DroppedTail += rest
			l.Warning = fmt.Sprintf("journal: dropped %d record(s) from line %d: %v", rest, lineNo, perr)
			break
		}
		if lineNo == 1 {
			if err := json.Unmarshal(js, &l.Meta); err != nil {
				return nil, fmt.Errorf("journal: %s: header: %v", path, err)
			}
			if l.Meta.Format != magic {
				return nil, fmt.Errorf("journal: %s: not a checkpoint journal (format %q)", path, l.Meta.Format)
			}
			if l.Meta.Version > Version {
				return nil, fmt.Errorf("journal: %s: version %d written by a newer tool (this binary understands <= %d)",
					path, l.Meta.Version, Version)
			}
			if l.Meta.Version < Version {
				return nil, fmt.Errorf("journal: %s: version %d was keyed by figure cell IDs, which this binary no longer uses; start a fresh run (remove the journal or pick another directory)",
					path, l.Meta.Version)
			}
		} else {
			var rec Record
			if err := json.Unmarshal(js, &rec); err != nil {
				return nil, fmt.Errorf("journal: %s: line %d: %v", path, lineNo, err)
			}
			if prev, dup := l.ByCell[rec.Cell]; dup {
				if prev.Digest != rec.Digest {
					return nil, fmt.Errorf("journal: %s: cell %q recorded twice with different digests (%s vs %s) — determinism violation, refusing to resume",
						path, rec.Cell, prev.Digest, rec.Digest)
				}
				// Same digest: one result appended twice, as when one
				// sweep names the same simulation twice (a matrix listing
				// a design twice). Keep the later record; note it.
				for i := range l.Records {
					if l.Records[i].Cell == rec.Cell {
						l.Records[i] = rec
						break
					}
				}
				l.ByCell[rec.Cell] = rec
				if l.Warning == "" {
					l.Warning = fmt.Sprintf("journal: duplicate record for cell %q (same digest; kept the later one)", rec.Cell)
				}
			} else {
				l.Records = append(l.Records, rec)
				l.ByCell[rec.Cell] = rec
			}
		}
		off += int64(nl + 1)
		l.GoodBytes = off
		data = data[nl+1:]
	}
	if lineNo == 0 {
		return nil, fmt.Errorf("journal: %s: empty (no header)", path)
	}
	return l, nil
}

// Journal is an open checkpoint journal: a cache of previously completed
// cells (populated by Resume) plus an appender for new completions. Safe
// for concurrent use by sweep workers.
type Journal struct {
	// FsyncEvery is the append count between fsyncs; <= 0 picks
	// DefaultFsyncEvery. Change it before the first Append.
	FsyncEvery int

	// TraceAppend, when set, wraps every Append in a request-scoped
	// span: it is called with the cell identity before the write and the
	// closure it returns is called with the append's outcome afterwards,
	// both outside the journal lock. bbserve wires this to the job's
	// span tree so checkpoint durability shows up on the request
	// timeline. nil is ignored.
	TraceAppend func(cell string) func(error)

	mu      sync.Mutex
	w       io.Writer // the file, or a test seam
	f       *os.File  // nil when writing to a plain io.Writer
	cached  map[string]Record
	resumed int // completed cells carried over from a previous invocation
	pending int // appends since the last fsync
	fsyncs  uint64
}

// InMemory returns a journal that keeps its records in memory only: no
// file, no fsync. Sweeps that share one serve each other's cells.
func InMemory() *Journal {
	return &Journal{w: io.Discard, cached: make(map[string]Record)}
}

// Create starts a fresh journal in dir, truncating any previous one, and
// writes the header durably before returning.
func Create(dir string, meta Meta) (*Journal, error) {
	f, err := os.OpenFile(filepath.Join(dir, FileName), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	j := &Journal{w: f, f: f, cached: make(map[string]Record)}
	if err := j.writeHeader(meta); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// Resume opens dir's journal for continuation: it loads the good prefix,
// verifies the header matches meta (same tool, experiment, and
// deterministic knobs), truncates any torn tail, and returns a journal
// whose cache holds every previously completed cell. When no journal
// exists yet, Resume degrades to Create. The Loaded return reports what
// was recovered (nil when starting fresh).
func Resume(dir string, meta Meta) (*Journal, *Loaded, error) {
	l, err := Load(dir)
	if err != nil {
		return nil, nil, err
	}
	if l == nil {
		j, err := Create(dir, meta)
		return j, nil, err
	}
	if want := meta.stamp(); !l.Meta.matches(want) {
		return nil, nil, fmt.Errorf("journal: %s belongs to a different sweep (%s/%s scale=%d accesses=%d epoch=%d shard=%q; resuming %s/%s scale=%d accesses=%d epoch=%d shard=%q)",
			filepath.Join(dir, FileName),
			l.Meta.Tool, l.Meta.Experiment, l.Meta.Scale, l.Meta.Accesses, l.Meta.TelemetryEpoch, l.Meta.Shard,
			want.Tool, want.Experiment, want.Scale, want.Accesses, want.TelemetryEpoch, want.Shard)
	}
	f, err := os.OpenFile(filepath.Join(dir, FileName), os.O_WRONLY, 0o644)
	if err != nil {
		return nil, nil, err
	}
	// Truncate the torn tail so new appends extend a clean prefix.
	if err := f.Truncate(l.GoodBytes); err != nil {
		f.Close()
		return nil, nil, err
	}
	if _, err := f.Seek(l.GoodBytes, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	j := &Journal{w: f, f: f, cached: make(map[string]Record, len(l.ByCell)), resumed: len(l.ByCell)}
	for cell, rec := range l.ByCell {
		j.cached[cell] = rec
	}
	return j, l, nil
}

func (j *Journal) writeHeader(meta Meta) error {
	js, err := json.Marshal(meta.stamp())
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.w.Write(frame(js)); err != nil {
		return fmt.Errorf("journal: write header: %w", err)
	}
	return j.syncLocked()
}

// Lookup returns the previously completed record for cell, if any.
func (j *Journal) Lookup(cell string) (Record, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	rec, ok := j.cached[cell]
	return rec, ok
}

// Resumed reports how many completed cells the journal carried when it
// was opened (before any Append of this invocation).
func (j *Journal) Resumed() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.resumed
}

// Append records one completed cell durably: payload is serialized,
// digested, framed with a CRC, written in one append, and fsynced on the
// configured cadence. Errors are the caller's to surface — a dropped
// checkpoint record silently becomes re-run work at best and a corrupt
// resume at worst, so they must never be swallowed.
func (j *Journal) Append(cell string, seed uint64, payload any) (err error) {
	if j.TraceAppend != nil {
		done := j.TraceAppend(cell)
		defer func() { done(err) }()
	}
	js, err := json.Marshal(payload)
	if err != nil {
		return fmt.Errorf("journal: marshal cell %q: %w", cell, err)
	}
	rec := Record{
		Cell:    cell,
		Seed:    FormatSeed(seed),
		Digest:  Digest(js),
		Payload: js,
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("journal: marshal record %q: %w", cell, err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.w.Write(frame(line)); err != nil {
		return fmt.Errorf("journal: append cell %q: %w", cell, err)
	}
	j.cached[cell] = rec
	j.pending++
	every := j.FsyncEvery
	if every <= 0 {
		every = DefaultFsyncEvery
	}
	if j.pending >= every {
		return j.syncLocked()
	}
	return nil
}

// Sync forces an fsync of everything appended so far.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.syncLocked()
}

func (j *Journal) syncLocked() error {
	j.pending = 0
	if j.f == nil {
		return nil
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: fsync: %w", err)
	}
	j.fsyncs++
	return nil
}

// Durable reports whether appends reach a file, as opposed to an
// InMemory journal's.
func (j *Journal) Durable() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f != nil
}

// Fsyncs reports how many fsyncs the journal has issued.
func (j *Journal) Fsyncs() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.fsyncs
}

// Close fsyncs and closes the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.syncLocked(); err != nil {
		if j.f != nil {
			j.f.Close()
		}
		return err
	}
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}
