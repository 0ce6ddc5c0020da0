package main

import (
	"io"
	"runtime"
	"testing"

	"repro/internal/trace"
	"repro/internal/tracecodec"
)

// TestGenStreamsBoundedMemory pins the streaming property of the gen
// path: pumping a 10M-access synthetic stream into a writer allocates
// the batch buffer, the writer's own framing buffers, and nothing per
// access. Before the batch rewrite, gen's memory profile depended on
// the access count; now TotalAlloc growth must stay under a fixed
// budget three orders of magnitude below the stream's size.
func TestGenStreamsBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("pumps 10M accesses")
	}
	const accesses = 10_000_000
	for _, tc := range []struct {
		name   string
		format tracecodec.Format
	}{
		{"binary", tracecodec.Format{Kind: tracecodec.KindBinary}},
		{"text+gz", tracecodec.Format{Kind: tracecodec.KindText, Gzip: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b, err := trace.ByName("mcf")
			if err != nil {
				t.Fatal(err)
			}
			gen, err := trace.NewSynthetic(b.Scale(128).Profile)
			if err != nil {
				t.Fatal(err)
			}
			sink := tracecodec.NewAccessWriter(tracecodec.NewWriter(io.Discard, tc.format))

			runtime.GC()
			var before runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := pump(&trace.Limit{S: gen, N: accesses}, sink, nil); err != nil {
				t.Fatal(err)
			}
			if err := sink.Close(); err != nil {
				t.Fatal(err)
			}
			var after runtime.MemStats
			runtime.ReadMemStats(&after)

			if sink.Count() != accesses {
				t.Fatalf("wrote %d accesses, want %d", sink.Count(), accesses)
			}
			// Budget: 4096-access batch buffer (64 KiB) + writer framing
			// (64 KiB bufio, gzip window) + test harness noise. A
			// per-access leak of even one byte would blow through it.
			const budget = 4 << 20
			if grew := after.TotalAlloc - before.TotalAlloc; grew > budget {
				t.Fatalf("pumping %d accesses allocated %d bytes, budget %d", accesses, grew, budget)
			}
		})
	}
}

// TestConvertRoundTripViaSinks: gen's pump -> BBT1 bytes -> replay
// Stream at the function level (the CI smoke covers the CLI binary)
// carries the identical access stream.
func TestConvertRoundTripViaSinks(t *testing.T) {
	b, err := trace.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	gen, err := trace.NewSynthetic(b.Scale(128).Profile)
	if err != nil {
		t.Fatal(err)
	}
	var want []trace.Access
	record := func(a trace.Access) { want = append(want, a) }

	// accesses -> binary codec bytes -> Stream -> accesses.
	var buf writerBuffer
	sink := tracecodec.NewAccessWriter(tracecodec.NewWriter(&buf, tracecodec.Format{Kind: tracecodec.KindBinary}))
	if err := pump(&trace.Limit{S: gen, N: 5000}, sink, record); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if len(want) != 5000 {
		t.Fatalf("pumped %d accesses, want 5000", len(want))
	}
	r, err := tracecodec.Open(&buf)
	if err != nil {
		t.Fatal(err)
	}
	back := tracecodec.NewStream(r)
	for i, w := range want {
		got, ok := back.Next()
		if !ok {
			t.Fatalf("stream ended at %d, want %d accesses", i, len(want))
		}
		if i == 0 {
			got.Gap = w.Gap // the first gap re-derives to 1 by convention
		}
		if got != w {
			t.Fatalf("access %d = %+v, want %+v", i, got, w)
		}
	}
	if err := trace.Err(back); err != nil {
		t.Fatal(err)
	}
}

// TestInfoReadsEveryEncoding: info characterizes the committed fixture
// identically whichever encoding holds it.
func TestInfoReadsEveryEncoding(t *testing.T) {
	const dir = "../../internal/tracecodec/testdata/"
	want, err := characterizeFile(dir+"fixture.txt", 1<<62)
	if err != nil {
		t.Fatal(err)
	}
	if want.Accesses != 6000 {
		t.Fatalf("fixture.txt: %d accesses, want 6000", want.Accesses)
	}
	for _, name := range []string{"fixture.bbt1", "fixture.bbt1.gz"} {
		got, err := characterizeFile(dir+name, 1<<62)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got != want {
			t.Errorf("%s: %+v, want %+v", name, got, want)
		}
	}
}

// writerBuffer is a minimal growable io.Writer + io.Reader.
type writerBuffer struct {
	b []byte
	r int
}

func (w *writerBuffer) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

func (w *writerBuffer) Read(p []byte) (int, error) {
	if w.r >= len(w.b) {
		return 0, io.EOF
	}
	n := copy(p, w.b[w.r:])
	w.r += n
	return n, nil
}
