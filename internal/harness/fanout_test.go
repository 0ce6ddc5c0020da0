package harness

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/addr"
	"repro/internal/ckpt"
	"repro/internal/hmm"
	"repro/internal/runner"
	"repro/internal/trace"
	"repro/internal/tracecodec"
)

// Filter once, fan out: a group of N cells sharing one filtered stream
// must produce, byte for byte and telemetry included, what N independent
// single-design runs produce. Lengths straddle the 4096-access chunk
// boundary, and the committed fixture covers a recorded trace.

// fanoutHarness enables every telemetry channel so the comparison covers
// the timeline, the latency histograms and the event trace.
func fanoutHarness(parallel int) *Harness {
	return &Harness{Scale: 1024, Parallel: parallel, TelemetryEpoch: 1000, TraceDepth: 64}
}

// syntheticOpener returns a source of n accesses of a fixed mcf stream
// and counts how often it was opened.
func syntheticOpener(n uint64, opens *atomic.Int64) func() (trace.Stream, error) {
	b, err := trace.ByName("mcf")
	if err != nil {
		panic(err)
	}
	p := b.Scale(1024).Profile
	p.Seed = 7
	return func() (trace.Stream, error) {
		opens.Add(1)
		gen, err := trace.NewSynthetic(p)
		if err != nil {
			return nil, err
		}
		return &trace.Limit{S: gen, N: n}, nil
	}
}

func fixtureOpener(t *testing.T, opens *atomic.Int64) func() (trace.Stream, error) {
	raw, err := os.ReadFile(fixturePath("fixture.bbt1"))
	if err != nil {
		t.Fatal(err)
	}
	return bytesOpener(raw, opens)
}

func bytesOpener(raw []byte, opens *atomic.Int64) func() (trace.Stream, error) {
	return func() (trace.Stream, error) {
		opens.Add(1)
		r, err := tracecodec.Open(bytes.NewReader(raw))
		if err != nil {
			return nil, err
		}
		return tracecodec.NewStream(r), nil
	}
}

// soloRuns replays open on each design by itself.
func soloRuns(t *testing.T, h *Harness, open func() (trace.Stream, error)) []RunResult {
	t.Helper()
	out := make([]RunResult, len(AllDesigns))
	sys := h.System()
	for i, d := range AllDesigns {
		st, err := open()
		if err != nil {
			t.Fatal(err)
		}
		mem, err := Build(d, sys)
		if err != nil {
			t.Fatal(err)
		}
		if out[i], err = h.RunStream(sys, mem, "fanout", st); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func TestFanOutMatchesSoloRuns(t *testing.T) {
	cases := []struct {
		name string
		open func(*atomic.Int64) func() (trace.Stream, error)
	}{
		{"fixture", func(o *atomic.Int64) func() (trace.Stream, error) { return fixtureOpener(t, o) }},
	}
	for _, n := range []uint64{0, 1, 4095, 4096, 4097} {
		n := n
		cases = append(cases, struct {
			name string
			open func(*atomic.Int64) func() (trace.Stream, error)
		}{
			"len" + strconv.FormatUint(n, 10),
			func(o *atomic.Int64) func() (trace.Stream, error) { return syntheticOpener(n, o) },
		})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var soloOpens atomic.Int64
			want := soloRuns(t, fanoutHarness(1), tc.open(&soloOpens))
			for _, parallel := range []int{1, 3} {
				var opens atomic.Int64
				got, err := fanoutHarness(parallel).ReplaySweep(AllDesigns, "fanout", tc.open(&opens))
				if err != nil {
					t.Fatalf("parallel %d: %v", parallel, err)
				}
				if opens.Load() != 1 {
					t.Errorf("parallel %d: trace opened %d times for one group, want 1", parallel, opens.Load())
				}
				for i := range want {
					if !reflect.DeepEqual(got[i], want[i]) {
						t.Errorf("parallel %d, %s: fan-out result differs from its solo run:\n got %+v\nwant %+v",
							parallel, AllDesigns[i], got[i], want[i])
					}
				}
			}
		})
	}
}

// recordBBT1 encodes n accesses of the fixed mcf stream as BBT1 bytes.
func recordBBT1(t *testing.T, n uint64) []byte {
	t.Helper()
	var opens atomic.Int64
	st, err := syntheticOpener(n, &opens)()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := tracecodec.NewAccessWriter(tracecodec.NewWriter(&buf, tracecodec.Format{Kind: tracecodec.KindBinary}))
	for {
		a, ok := st.Next()
		if !ok {
			break
		}
		if err := w.Write(a); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// A damaged trace fails every cell of its group with the decode error —
// never a silently short run for some of them.
func TestFanOutDamagedTraceFailsEveryCell(t *testing.T) {
	raw := recordBBT1(t, 3*4096+100)
	raw[len(raw)-40] ^= 0xff // inside the last frame: decodes part-way, then fails
	var opens atomic.Int64
	runs, err := fanoutHarness(2).ReplaySweep(AllDesigns, "fanout", bytesOpener(raw, &opens))
	var errs runner.Errors
	if !errors.As(err, &errs) {
		t.Fatalf("damaged trace: err = %v, want per-cell errors", err)
	}
	if len(errs) != len(AllDesigns) {
		t.Fatalf("%d of %d cells failed: %v", len(errs), len(AllDesigns), err)
	}
	for _, e := range errs {
		if !strings.Contains(e.Error(), "trace stream failed after") {
			t.Errorf("cell %d: %v, want the decode error", e.Index, e)
		}
	}
	for i, r := range runs {
		if r.CPU.Accesses != 0 {
			t.Errorf("%s returned a short run of %d accesses", AllDesigns[i], r.CPU.Accesses)
		}
	}
	if opens.Load() != 1 {
		t.Errorf("trace opened %d times, want 1", opens.Load())
	}
}

// panicMem fails its cell by panicking on the first miss.
type panicMem struct{ hmm.MemSystem }

func (panicMem) Access(now uint64, a addr.Addr, write bool) uint64 { panic("forced consumer failure") }

// A failing consumer fails only its own cell; it releases its place in
// the ring so the other consumers run to completion.
func TestFanOutConsumerFailureIsolated(t *testing.T) {
	const bad = 3
	var opens atomic.Int64
	open := syntheticOpener(20*4096, &opens) // more chunks than the ring holds
	h := fanoutHarness(2)
	want := soloRuns(t, h, open)
	cells := make([]cell, len(AllDesigns))
	for i, d := range AllDesigns {
		cells[i] = cell{ID: cellID("fanout", string(d)), Seed: 1}
	}
	got, err := sweepShared(h, cells,
		func(i int) shared {
			s := h.replayCell(AllDesigns[i], "fanout", open)
			if i == bad {
				build := s.build
				s.build = func() (hmm.MemSystem, error) {
					mem, err := build()
					return panicMem{mem}, err
				}
			}
			return s
		},
		func(i int, r RunResult, err error) (RunResult, error) { return r, err })
	var errs runner.Errors
	if !errors.As(err, &errs) || len(errs) != 1 || errs[0].Index != bad {
		t.Fatalf("err = %v, want exactly cell %d failed", err, bad)
	}
	if !strings.Contains(errs[0].Error(), "forced consumer failure") {
		t.Errorf("cell %d: %v, want the consumer's panic", bad, errs[0])
	}
	for i := range want {
		if i != bad && !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s: result changed by another cell's failure", AllDesigns[i])
		}
	}
}

// Fanning a long stream out to every design holds a bounded ring of
// chunks, never the stream: allocation must not grow with trace length.
func TestFanOutBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("fans 2M accesses out to nine designs")
	}
	alloc := func(n uint64) uint64 {
		var opens atomic.Int64
		h := &Harness{Scale: 1024, Parallel: 2}
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		runs, err := h.ReplaySweep(AllDesigns, "fanout", syntheticOpener(n, &opens))
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range runs {
			if r.CPU.Accesses != n {
				t.Fatalf("%s ran %d accesses, want %d", r.Design, r.CPU.Accesses, n)
			}
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	short, long := alloc(100_000), alloc(2_000_000)
	// Budget: the ring is a few chunks of ~70 KiB, shared by all nine
	// consumers; a producer that outran the ring, or one chunk allocated
	// per batch, would allocate ~30 MiB over the extra 1.9M accesses.
	const budget = 4 << 20
	if long > short+budget {
		t.Fatalf("2M accesses allocated %d bytes, 100k allocated %d: growth beyond budget %d",
			long, short, budget)
	}
	t.Logf("allocated %d bytes at 100k accesses, %d at 2M", short, long)
}

// Grouping leaves the sweep plumbing per cell: a shard's owned cells, and
// the cells a resumed sweep still has to run, form smaller groups whose
// results equal the unsharded, uninterrupted sweep's.
func TestFanOutShardAndResume(t *testing.T) {
	var opens atomic.Int64
	open := syntheticOpener(3*4096+5, &opens)
	want, err := fanoutHarness(2).ReplaySweep(AllDesigns, "fanout", open)
	if err != nil {
		t.Fatal(err)
	}
	same := func(what string, i int, got RunResult) {
		t.Helper()
		a, _ := json.Marshal(got)
		b, _ := json.Marshal(want[i])
		if !bytes.Equal(a, b) {
			t.Errorf("%s: %s differs from the plain sweep", what, AllDesigns[i])
		}
	}
	for k := 1; k <= 2; k++ {
		h := fanoutHarness(2)
		h.Shard = runner.Shard{K: k, N: 2}
		got, err := h.ReplaySweep(AllDesigns, "fanout", open)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if h.Shard.Owns(i) {
				same("shard "+h.Shard.String(), i, got[i])
			}
		}
	}

	meta := ckpt.Meta{Tool: "harness-test", Experiment: "replay", Scale: 1024, TelemetryEpoch: 1000}
	dir := t.TempDir()
	j, err := ckpt.Create(dir, meta)
	if err != nil {
		t.Fatal(err)
	}
	h := fanoutHarness(2)
	h.Journal = j
	if _, err := h.ReplaySweep(AllDesigns[:4], "fanout", open); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, _, err := ckpt.Resume(dir, meta)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	h2 := fanoutHarness(2)
	h2.Journal = j2
	opens.Store(0)
	got, err := h2.ReplaySweep(AllDesigns, "fanout", open)
	if err != nil {
		t.Fatal(err)
	}
	if j2.Resumed() != 4 || opens.Load() != 1 {
		t.Errorf("resumed %d cells and opened the trace %d times, want 4 and 1", j2.Resumed(), opens.Load())
	}
	for i := range want {
		same("resume", i, got[i])
	}
}
