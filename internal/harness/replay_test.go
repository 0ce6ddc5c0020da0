package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/trace"
	"repro/internal/tracecodec"
)

// Replay determinism: the committed trace fixture (one recording in
// four encodings, see internal/tracecodec/testdata) must produce
// byte-identical runs CSVs on every design regardless of which encoding
// supplied the stream and regardless of sweep parallelism — the same
// contract the synthetic sweeps pin, extended to ingested traces. The
// CSV is additionally pinned as a golden file so a behaviour change in
// any design shows up as a reviewed diff.

// fixtures is the same trace in every committed encoding.
var fixtures = []string{"fixture.txt", "fixture.bbt1", "fixture.bbt1.gz"}

func fixturePath(name string) string {
	return filepath.Join("..", "tracecodec", "testdata", name)
}

// replayFixtureCSV replays one fixture encoding on all designs at the
// given parallelism and renders the runs CSV.
func replayFixtureCSV(t *testing.T, file string, parallel int) []byte {
	t.Helper()
	h := &Harness{Scale: 128, Parallel: parallel}
	runs, err := h.ReplaySweep(AllDesigns, "fixture", func() (trace.Stream, error) {
		f, err := os.Open(fixturePath(file))
		if err != nil {
			return nil, err
		}
		t.Cleanup(func() { f.Close() })
		r, err := tracecodec.Open(f)
		if err != nil {
			return nil, err
		}
		return tracecodec.NewStream(r), nil
	})
	if err != nil {
		t.Fatalf("%s parallel=%d: %v", file, parallel, err)
	}
	var buf bytes.Buffer
	if err := WriteRunsCSV(&buf, runs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestReplayFixtureDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("replays all designs eight times")
	}
	ref := replayFixtureCSV(t, fixtures[0], 1)
	for _, file := range fixtures {
		for _, parallel := range []int{1, 8} {
			if file == fixtures[0] && parallel == 1 {
				continue
			}
			got := replayFixtureCSV(t, file, parallel)
			if !bytes.Equal(got, ref) {
				t.Errorf("%s at -parallel %d diverged from %s at -parallel 1:\n--- got ---\n%s\n--- want ---\n%s",
					file, parallel, fixtures[0], got, ref)
			}
		}
	}
	checkGolden(t, "replay_fixture_runs.golden.csv", ref)
}
