package tracecodec

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// The committed fixture under testdata/ is one short recording of the
// scaled "roms" workload (footprint ~85 MiB at scale 128, an order of
// magnitude over the scaled HBM, so replaying it makes every design
// behave differently), committed in all three writable encodings. The
// replay golden test in internal/harness runs these exact files through every
// design and pins the runs CSV; this test pins the trace bytes
// themselves, so either layer drifting is a reviewed change.
//
// fixture.txt is the source of truth. It was recorded from the
// synthetic generator (roms at scale 128, seed 0xf1c5, no
// initialization sweep, 6000 accesses, cycle = running sum of gaps),
// but it is data now: changing the generator's sampling does not touch
// it, and the other encodings are derived from it.

// fixtureAccesses crosses a BBT1 frame boundary (frameRecs).
const fixtureAccesses = 6000

// fixtureRecs decodes the committed text fixture.
func fixtureRecs(t *testing.T) []Rec {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "fixture.txt"))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := decodeAll(t, raw)
	if err != nil {
		t.Fatalf("fixture.txt: %v", err)
	}
	return recs
}

var fixtureFiles = []struct {
	name   string
	format Format
}{
	{"fixture.txt", Format{Kind: KindText}},
	{"fixture.bbt1", Format{Kind: KindBinary}},
	{"fixture.bbt1.gz", Format{Kind: KindBinary, Gzip: true}},
}

// TestFixtureFilesInSync re-encodes the records of fixture.txt in every
// writable encoding and byte-compares them to the committed files
// (UPDATE_GOLDEN=1 rewrites the binary ones from the text). Re-encoding
// the text must reproduce it exactly too. gzip output has no timestamp
// by construction (gzip.Writer leaves ModTime zero), so all three are
// deterministic.
func TestFixtureFilesInSync(t *testing.T) {
	recs := fixtureRecs(t)
	if len(recs) != fixtureAccesses {
		t.Fatalf("fixture.txt holds %d recs, want %d", len(recs), fixtureAccesses)
	}
	for _, ff := range fixtureFiles {
		path := filepath.Join("testdata", ff.name)
		enc := encodeAll(t, recs, ff.format)
		if os.Getenv("UPDATE_GOLDEN") != "" && ff.format.Kind != KindText {
			if err := os.WriteFile(path, enc, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing fixture (run with UPDATE_GOLDEN=1 to create): %v", err)
		}
		if !bytes.Equal(got, enc) {
			t.Errorf("%s (%d bytes) no longer matches fixture.txt re-encoded (%d bytes); regenerate with UPDATE_GOLDEN=1", path, len(got), len(enc))
		}
	}
}

// TestFixtureFilesDecodeIdentically proves the committed files are the
// same trace: every encoding decodes to the identical records.
func TestFixtureFilesDecodeIdentically(t *testing.T) {
	ref := fixtureRecs(t)
	for _, ff := range fixtureFiles {
		name := ff.name
		raw, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		recs, err := decodeAll(t, raw)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(recs) != len(ref) {
			t.Fatalf("%s: %d recs, want %d", name, len(recs), len(ref))
		}
		for i := range ref {
			if recs[i] != ref[i] {
				t.Fatalf("%s: rec %d = %+v, want %+v", name, i, recs[i], ref[i])
			}
		}
	}
}
