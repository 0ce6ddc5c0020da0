package tracecodec

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// fuzzRecCap bounds how many records one fuzz input may decode; a
// crafted input must not turn the fuzzer into a long-running replay.
const fuzzRecCap = 1 << 16

// drain decodes up to fuzzRecCap records. The decode itself must never
// panic — that is the core fuzz invariant; the returned records feed the
// round-trip check when the decode was clean.
func drain(r Reader) ([]Rec, error) {
	var recs []Rec
	for len(recs) < fuzzRecCap {
		rec, ok := r.Next()
		if !ok {
			break
		}
		recs = append(recs, rec)
	}
	return recs, r.Err()
}

// requireRoundTrip re-encodes a cleanly decoded stream and decodes it
// again: canonical encodings are a fixed point, so any drift means a
// codec bug the plain unit tests missed.
func requireRoundTrip(t *testing.T, recs []Rec, f Format) {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf, f)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatalf("re-encode (%v): %v", f, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("re-encode close (%v): %v", f, err)
	}
	r, err := Open(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("re-open (%v): %v", f, err)
	}
	got, err := drain(r)
	if err != nil {
		t.Fatalf("re-decode (%v): %v", f, err)
	}
	if len(got) != len(recs) {
		t.Fatalf("re-decode (%v): %d recs, want %d", f, len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("re-decode (%v): rec %d = %+v, want %+v", f, i, got[i], recs[i])
		}
	}
}

// FuzzTraceDecodeText throws arbitrary bytes at the text decoder: it
// must never panic, and whatever it accepts must re-encode and decode
// to the identical record stream.
func FuzzTraceDecodeText(f *testing.F) {
	for _, b := range fuzzSeedsText() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := drain(NewTextReader(bytes.NewReader(data)))
		if err != nil {
			return // refused input is a correct outcome
		}
		requireRoundTrip(t, recs, Format{Kind: KindText})
	})
}

// FuzzTraceDecodeBinary throws arbitrary bytes at the BBT1 decoder
// (header included): no panics, no unbounded allocation, and accepted
// inputs round-trip exactly.
func FuzzTraceDecodeBinary(f *testing.F) {
	for _, b := range fuzzSeedsBinary() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewBinaryReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		recs, err := drain(r)
		if err != nil {
			return
		}
		requireRoundTrip(t, recs, Format{Kind: KindBinary})
	})
}

// fuzzSeedsText builds the in-code seed corpus for the text decoder.
func fuzzSeedsText() [][]byte {
	seeds := [][]byte{
		[]byte(""),
		[]byte(textHeader + "\n"),
		[]byte(textHeader + "\n10, 0x40, 0\n12, 0x80, 1\n"),
		[]byte("5 128 W\n6\t0XFF\tRD\n"),
		[]byte("# comment\n\n7, 0x1000, STORE"),
		[]byte("1, 0x40\n"),
		[]byte("18446744073709551615, 0xffffffffffffffff, 1\n"),
		bytes.Repeat([]byte("9"), maxLineBytes+2),
	}
	seeds = append(seeds, encodeSeedRecs(Format{Kind: KindText}))
	return seeds
}

// fuzzSeedsBinary builds the in-code seed corpus for the BBT1 decoder.
func fuzzSeedsBinary() [][]byte {
	valid := encodeSeedRecs(Format{Kind: KindBinary})
	torn := valid[:len(valid)-3]
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x40
	badVersion := append([]byte(nil), valid...)
	badVersion[4] = 99
	return [][]byte{
		[]byte(binaryMagic),
		[]byte(binaryMagic + "\x01"),
		valid, torn, flipped, badVersion,
		append(append([]byte(nil), valid...), 0xFF),
	}
}

// encodeSeedRecs encodes a small deterministic stream for seeding.
func encodeSeedRecs(f Format) []byte {
	var buf bytes.Buffer
	w := NewWriter(&buf, f)
	for _, r := range genRecs(0x5eed, 300) {
		if err := w.Write(r); err != nil {
			panic(err)
		}
	}
	if err := w.Close(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// TestWriteFuzzCorpus materializes the seed corpora under
// testdata/fuzz/ in the Go corpus file encoding, so the committed
// corpus and the in-code seeds can never drift apart. Run with
// UPDATE_GOLDEN=1 to regenerate; otherwise it verifies the files.
func TestWriteFuzzCorpus(t *testing.T) {
	for name, seeds := range map[string][][]byte{
		"FuzzTraceDecodeText":   fuzzSeedsText(),
		"FuzzTraceDecodeBinary": fuzzSeedsBinary(),
	} {
		dir := filepath.Join("testdata", "fuzz", name)
		for i, b := range seeds {
			path := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
			content := "go test fuzz v1\n[]byte(" + strconv.Quote(string(b)) + ")\n"
			if os.Getenv("UPDATE_GOLDEN") != "" {
				if err := os.MkdirAll(dir, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%s missing (run with UPDATE_GOLDEN=1 to generate): %v", path, err)
			}
			if string(got) != content {
				t.Fatalf("%s drifted from the in-code seed; regenerate with UPDATE_GOLDEN=1", path)
			}
		}
	}
}
