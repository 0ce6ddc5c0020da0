package tracecodec

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"repro/internal/trace"
)

// genRecs builds a deterministic pseudo-random record stream covering
// the codec's interesting regions: tiny and huge addresses, forward and
// backward address deltas, bursty and sparse cycle gaps, read/write
// mixes. Seeded xorshift so every run tests the same stream.
func genRecs(seed uint64, n int) []Rec {
	s := seed
	next := func() uint64 {
		s ^= s >> 12
		s ^= s << 25
		s ^= s >> 27
		return s * 0x2545f4914f6cdd1d
	}
	recs := make([]Rec, n)
	cycle := uint64(0)
	for i := range recs {
		switch next() % 8 {
		case 0:
			cycle += next() % 2 // dense burst
		case 1:
			cycle += next() % (1 << 40) // long idle gap
		default:
			cycle += next() % 500
		}
		a := next()
		if next()%4 == 0 {
			a %= 1 << 12 // cluster low to exercise small deltas
		}
		recs[i] = Rec{Cycle: cycle, Addr: a, Write: next()%3 == 0}
	}
	return recs
}

func encodeAll(t *testing.T, recs []Rec, f Format) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf, f)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatalf("%v: write: %v", f, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("%v: close: %v", f, err)
	}
	return buf.Bytes()
}

func decodeAll(t *testing.T, b []byte) ([]Rec, error) {
	t.Helper()
	r, err := Open(bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	var recs []Rec
	for {
		rec, ok := r.Next()
		if !ok {
			break
		}
		recs = append(recs, rec)
	}
	return recs, r.Err()
}

var allFormats = []Format{
	{Kind: KindText},
	{Kind: KindBinary},
	{Kind: KindText, Gzip: true},
	{Kind: KindBinary, Gzip: true},
}

// TestRoundTripAllFormats: every format reproduces the exact record
// stream, including multi-frame binary traces (> frameRecs records).
func TestRoundTripAllFormats(t *testing.T) {
	for _, n := range []int{0, 1, 7, frameRecs, frameRecs + 1, 3*frameRecs + 17} {
		recs := genRecs(0xbb+uint64(n), n)
		for _, f := range allFormats {
			enc := encodeAll(t, recs, f)
			got, err := decodeAll(t, enc)
			if err != nil {
				t.Fatalf("n=%d %v: decode: %v", n, f, err)
			}
			if len(got) != len(recs) {
				t.Fatalf("n=%d %v: got %d recs, want %d", n, f, len(got), len(recs))
			}
			for i := range recs {
				if got[i] != recs[i] {
					t.Fatalf("n=%d %v: rec %d = %+v, want %+v", n, f, i, got[i], recs[i])
				}
			}
		}
	}
}

// TestConvertChainByteIdentical: text -> binary -> binary+gzip -> text
// reproduces the canonical text bytes exactly — the property the CI
// convert-round-trip diff checks on the committed fixture.
func TestConvertChainByteIdentical(t *testing.T) {
	recs := genRecs(42, 2*frameRecs+5)
	canonical := encodeAll(t, recs, Format{Kind: KindText})

	convert := func(in []byte, f Format) []byte {
		r, err := Open(bytes.NewReader(in))
		if err != nil {
			t.Fatalf("open for %v: %v", f, err)
		}
		var buf bytes.Buffer
		w := NewWriter(&buf, f)
		if _, err := Convert(r, w); err != nil {
			t.Fatalf("convert to %v: %v", f, err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	bin := convert(canonical, Format{Kind: KindBinary})
	gz := convert(bin, Format{Kind: KindBinary, Gzip: true})
	back := convert(gz, Format{Kind: KindText})
	if !bytes.Equal(back, canonical) {
		t.Fatalf("text->binary->gzip->text drifted: %d bytes vs %d", len(back), len(canonical))
	}
}

// TestOpenDetectsBBTR: the legacy .bbtr recording format is no longer
// read. Open recognises its header, plain or behind gzip, and refuses it
// with an error naming the format instead of decoding anything.
func TestOpenDetectsBBTR(t *testing.T) {
	// A version 1 header and one record: address delta +0x1000, gap 3.
	rec := bbtrMagic + "\x01\x80\x40\x03\x00"
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write([]byte(rec))
	zw.Close()
	for name, in := range map[string][]byte{
		"header only": []byte(bbtrMagic),
		"record":      []byte(rec),
		"gzipped":     gz.Bytes(),
	} {
		r, err := Open(bytes.NewReader(in))
		if err == nil || !strings.Contains(err.Error(), ".bbtr") {
			t.Errorf("%s: Open = %v, %v; want a .bbtr error", name, r, err)
		}
	}
}

// TestReaderRejectsGarbage: binary records behind a damaged magic that
// no codec claims, or no input at all, are refused, at Open or on the
// first read. The text decoder takes a non-numeric first line for a
// header only when it is printable text, so control bytes or invalid
// UTF-8 there are refused on line 1.
func TestReaderRejectsGarbage(t *testing.T) {
	damaged := []byte("XBT1\x01\x80\x40\x03\x00")
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(damaged)
	zw.Close()
	for _, tc := range []struct {
		name, wantSub string
		in            []byte
	}{
		{"bad magic", "line 1", []byte("XBT1\x01\n\x80\x40\x03\x00")},
		{"damaged binary", "line 1", damaged},
		{"damaged binary gzipped", "line 1", gz.Bytes()},
		{"delete byte", "line 1", []byte("cycle, address\x7f\n1, 0x40, 0\n")},
		{"invalid UTF-8", "line 1", []byte("cycle, \xffaddress, type\n1, 0x40, 0\n")},
		{"empty input", "empty", nil},
	} {
		recs, err := decodeAll(t, tc.in)
		if err == nil {
			t.Errorf("%s: decoded %d recs without error", tc.name, len(recs))
		} else if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantSub)
		}
	}
}

// TestTextReaderVariants: the reader accepts the separator, radix, and
// type-mnemonic variants seen in the wild and normalizes them all.
func TestTextReaderVariants(t *testing.T) {
	in := strings.Join([]string{
		"cycle,\taddress,\ttype — µs", // printable header: tab and non-ASCII text pass
		"# a comment",
		"10, 0x40, 0",
		"12  128  1", // whitespace-separated, decimal address
		"15,0XFF,W",  // no spaces, uppercase hex, letter type
		"",           // blank line
		"20\t4096\tRD",
		"21, 0x1000, STORE",
	}, "\n") + "\n"
	got, err := decodeAll(t, []byte(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []Rec{
		{10, 0x40, false},
		{12, 128, true},
		{15, 0xFF, true},
		{20, 4096, false},
		{21, 0x1000, true},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d recs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rec %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestTextReaderRefusals: malformed lines are hard errors carrying the
// line number, never silently skipped records.
func TestTextReaderRefusals(t *testing.T) {
	cases := []struct {
		name, in, wantSub string
	}{
		{"bad field count", "cycle, address, type\n1, 0x40\n", "line 2"},
		{"bad type", "5, 0x40, X\n", "access type"},
		{"bad cycle", "1, 0x40, 0\nabc, 0x40, 0\n", "line 2"}, // line 1 leniency does not extend past it
		{"bad address", "5, zz, 0\n", "address"},
		{"header not on line 1", "1, 0x40, 0\ncycle, address, type\n", "line 2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := decodeAll(t, []byte(tc.in))
			if err == nil {
				t.Fatalf("decoded %q without error", tc.in)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

// TestBinaryDamageRefused mirrors the internal/ckpt damage tests: a
// trace truncated at any byte, or with any bit flipped past the header,
// must fail decode rather than replay short or wrong.
func TestBinaryDamageRefused(t *testing.T) {
	recs := genRecs(7, frameRecs+100) // two frames
	enc := encodeAll(t, recs, Format{Kind: KindBinary})

	t.Run("truncated", func(t *testing.T) {
		// Every truncation point after the 5-byte header and before the
		// end either errors or — only at exact frame boundaries — yields
		// a clean shorter trace. Identify the one interior frame
		// boundary and require errors everywhere else.
		cleanShort := 0
		// Start past the header: enc[:5] is a complete (empty) trace.
		for cut := len(binaryMagic) + 2; cut < len(enc); cut++ {
			got, err := decodeAll(t, enc[:cut])
			if err == nil {
				cleanShort++
				if len(got) != frameRecs {
					t.Fatalf("cut=%d decoded cleanly with %d recs (not a frame boundary)", cut, len(got))
				}
			}
		}
		if cleanShort != 1 {
			t.Fatalf("%d truncation points decoded cleanly, want exactly 1 (the frame boundary)", cleanShort)
		}
	})

	t.Run("bit flips", func(t *testing.T) {
		// Flip one bit in a sample of positions across both frames; the
		// decode must either error or reproduce the original records
		// (a flip inside unused varint headroom cannot occur here, so
		// any clean decode with identical records means the flip hit
		// redundant framing — there is none, so require an error or a
		// record mismatch detected via CRC... in practice: an error).
		for pos := len(binaryMagic) + 1; pos < len(enc); pos += 97 {
			mut := append([]byte(nil), enc...)
			mut[pos] ^= 0x10
			if _, err := decodeAll(t, mut); err == nil {
				t.Fatalf("bit flip at byte %d decoded cleanly", pos)
			}
		}
	})

	t.Run("magic damage", func(t *testing.T) {
		mut := append([]byte(nil), enc...)
		mut[0] = 'X'
		if _, err := decodeAll(t, mut); err == nil {
			// Damaged magic falls through to the text decoder, which
			// must refuse the binary soup.
			t.Fatal("damaged magic decoded cleanly")
		}
	})

	t.Run("future version", func(t *testing.T) {
		mut := append([]byte(nil), enc...)
		mut[4] = binaryVersion + 1
		r, err := NewBinaryReader(bytes.NewReader(mut))
		if err == nil || !strings.Contains(err.Error(), "version") {
			t.Fatalf("future version: reader=%v err=%v, want version error", r, err)
		}
	})

	t.Run("trailing garbage", func(t *testing.T) {
		mut := append(append([]byte(nil), enc...), 0xFF, 0xFF, 0xFF)
		if _, err := decodeAll(t, mut); err == nil {
			t.Fatal("trailing garbage decoded cleanly")
		}
	})

	t.Run("gzip truncation", func(t *testing.T) {
		gz := encodeAll(t, recs, Format{Kind: KindBinary, Gzip: true})
		if _, err := decodeAll(t, gz[:len(gz)-7]); err == nil {
			t.Fatal("truncated gzip decoded cleanly")
		}
	})
}

// TestEmptyTraces: an empty trace round-trips (header-only files), and
// a zero-byte input is refused.
func TestEmptyTraces(t *testing.T) {
	for _, f := range allFormats {
		enc := encodeAll(t, nil, f)
		if len(enc) == 0 {
			t.Fatalf("%v: empty trace encoded to zero bytes", f)
		}
		got, err := decodeAll(t, enc)
		if err != nil || len(got) != 0 {
			t.Fatalf("%v: empty trace: recs=%d err=%v", f, len(got), err)
		}
	}
	if _, err := Open(bytes.NewReader(nil)); err == nil {
		t.Fatal("zero-byte input opened cleanly")
	}
}

// TestStreamGapDerivation: cycle deltas become instruction gaps with
// first-access, non-monotonic, and overflow clamping.
func TestStreamGapDerivation(t *testing.T) {
	recs := []Rec{
		{Cycle: 1_000_000, Addr: 0x40},                       // first: gap 1 regardless of offset
		{Cycle: 1_000_010, Addr: 0x80},                       // +10
		{Cycle: 1_000_005, Addr: 0xC0},                       // backwards: 0
		{Cycle: 1_000_005 + 1<<40, Addr: 0x100},              // overflow: clamp
		{Cycle: 1_000_006 + 1<<40, Addr: 0x140, Write: true}, // +1
	}
	s := NewStream(&sliceReader{recs: recs})
	wantGaps := []uint32{1, 10, 0, math.MaxUint32, 1}
	var buf [8]trace.Access
	n := s.NextBatch(buf[:])
	if n != len(recs) {
		t.Fatalf("NextBatch = %d, want %d", n, len(recs))
	}
	for i, g := range wantGaps {
		if buf[i].Gap != g {
			t.Fatalf("access %d gap = %d, want %d", i, buf[i].Gap, g)
		}
	}
	if uint64(buf[4].Addr) != 0x140 || !buf[4].Write {
		t.Fatalf("access 4 = %+v", buf[4])
	}
	if s.Count() != uint64(len(recs)) {
		t.Fatalf("Count = %d", s.Count())
	}
}

// sliceReader serves a fixed record slice as a Reader (test double).
type sliceReader struct {
	recs []Rec
	i    int
	err  error
}

func (s *sliceReader) Next() (Rec, bool) {
	if s.i >= len(s.recs) {
		return Rec{}, false
	}
	r := s.recs[s.i]
	s.i++
	return r, true
}

func (s *sliceReader) Err() error { return s.err }

// TestStreamSurfacesDecodeError: a reader that dies mid-stream shows up
// through trace.Err (what cpu.Run checks after ingestion).
func TestStreamSurfacesDecodeError(t *testing.T) {
	sr := &sliceReader{recs: genRecs(3, 5), err: fmt.Errorf("boom")}
	s := NewStream(sr)
	var buf [16]trace.Access
	s.NextBatch(buf[:])
	if err := trace.Err(s); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("trace.Err = %v, want the reader's error", err)
	}
}

// TestAccessWriterInvertsStream: Access -> Rec -> Access preserves the
// access sequence (addresses, writes, gaps) for gap-valid streams.
func TestAccessWriterInvertsStream(t *testing.T) {
	recs := genRecs(9, 500)
	// Normalize into a gap-representable stream first.
	src := NewStream(&sliceReader{recs: recs})
	var accs []trace.Access
	for {
		a, ok := src.Next()
		if !ok {
			break
		}
		accs = append(accs, a)
	}
	var buf bytes.Buffer
	aw := NewAccessWriter(NewBinaryWriter(&buf))
	for _, a := range accs {
		if err := aw.Write(a); err != nil {
			t.Fatal(err)
		}
	}
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}
	if aw.Count() != uint64(len(accs)) {
		t.Fatalf("Count = %d, want %d", aw.Count(), len(accs))
	}
	r, err := Open(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	back := NewStream(r)
	for i, want := range accs {
		got, ok := back.Next()
		if !ok {
			t.Fatalf("stream ended at %d, want %d", i, len(accs))
		}
		// The first access's gap re-derives to 1 by construction; all
		// others must match exactly.
		if i == 0 {
			got.Gap = want.Gap
		}
		if got != want {
			t.Fatalf("access %d = %+v, want %+v", i, got, want)
		}
	}
	if err := trace.Err(back); err != nil {
		t.Fatal(err)
	}
}

// TestOpenNonSeekableChunks: Open works over a reader that returns tiny
// chunks (the chunked-transfer server path), not just files.
func TestOpenNonSeekableChunks(t *testing.T) {
	recs := genRecs(11, 2000)
	enc := encodeAll(t, recs, Format{Kind: KindBinary, Gzip: true})
	got, err := decodeAllFrom(io.NopCloser(&oneByteReader{b: enc}))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("got %d recs, want %d", len(got), len(recs))
	}
}

func decodeAllFrom(r io.Reader) ([]Rec, error) {
	rd, err := Open(r)
	if err != nil {
		return nil, err
	}
	var recs []Rec
	for {
		rec, ok := rd.Next()
		if !ok {
			break
		}
		recs = append(recs, rec)
	}
	return recs, rd.Err()
}

// oneByteReader yields one byte per Read call.
type oneByteReader struct {
	b []byte
	i int
}

func (o *oneByteReader) Read(p []byte) (int, error) {
	if o.i >= len(o.b) {
		return 0, io.EOF
	}
	p[0] = o.b[o.i]
	o.i++
	return 1, nil
}
