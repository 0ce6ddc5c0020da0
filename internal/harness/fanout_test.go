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
	"repro/internal/cache"
	"repro/internal/ckpt"
	"repro/internal/cpu"
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

// A lone cell is a one-member group: its core sees exactly what cpu.Run
// sees over the same stream, hierarchy and design.
func TestLoneCellMatchesCPURun(t *testing.T) {
	h := &Harness{Scale: 1024}
	sys := h.System()
	for _, n := range []uint64{0, 1, 4096, 3*4096 + 5} {
		var opens atomic.Int64
		open := syntheticOpener(n, &opens)
		for _, d := range AllDesigns {
			st, err := open()
			if err != nil {
				t.Fatal(err)
			}
			mem, err := Build(d, sys)
			if err != nil {
				t.Fatal(err)
			}
			hier, err := cache.NewHierarchy(sys.Caches)
			if err != nil {
				t.Fatal(err)
			}
			want, err := cpu.Run(sys.Core, hier, mem, st)
			if err != nil {
				t.Fatal(err)
			}
			if st, err = open(); err != nil {
				t.Fatal(err)
			}
			lone, err := Build(d, sys)
			if err != nil {
				t.Fatal(err)
			}
			got, err := h.RunStream(sys, lone, "lone", st)
			if err != nil {
				t.Fatal(err)
			}
			if got.CPU != want || got.Counters != mem.Counters() {
				t.Errorf("%s, %d accesses: lone cell differs from cpu.Run:\n got %+v\nwant %+v",
					d, n, got.CPU, want)
			}
		}
	}
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
	sys := h.System()
	got, err := sweepShared(h, len(AllDesigns),
		func(i int) shared {
			s := h.replayCell(AllDesigns[i], "fanout", sys, open)
			if i == bad {
				build := s.build
				s.build = func() (hmm.MemSystem, error) {
					mem, err := build()
					return panicMem{mem}, err
				}
			}
			return s
		}, nil)
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

// A group's cells go out back to back, groups in order of their first
// cell; within a group, and for singleton groups, index order holds.
func TestDispatchOrderGroupsCells(t *testing.T) {
	cases := []struct {
		keys []string
		want []int
	}{
		{nil, []int{}},
		{[]string{"a", "b", "c"}, []int{0, 1, 2}}, // singletons keep index order
		{[]string{"a", "a", "a"}, []int{0, 1, 2}}, // one group, stable
		{[]string{"a", "b", "a", "c", "b", "a"}, []int{0, 2, 5, 1, 4, 3}},
		// Fig8's design-major list: rows of designs, one column per benchmark.
		{[]string{"x", "y", "z", "x", "y", "z", "x", "y", "z"}, []int{0, 3, 6, 1, 4, 7, 2, 5, 8}},
	}
	for _, tc := range cases {
		if got := dispatchOrder(tc.keys); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("dispatchOrder(%q) = %v, want %v", tc.keys, got, tc.want)
		}
	}
}

// sweepShared hands cells to the workers in dispatch order, and nothing
// else moves: results, failures and shard ownership stay by cell index.
// With one worker, done runs in the order cells were taken.
func TestDispatchOrderSweep(t *testing.T) {
	keys := []string{"a", "b", "a", "c", "b", "a"}
	const bad = 3 // the lone "c" cell fails to open its trace
	var opens atomic.Int64
	open := syntheticOpener(500, &opens)
	for _, tc := range []struct {
		shard runner.Shard
		want  []int
	}{
		{runner.Shard{}, []int{0, 2, 5, 1, 4, 3}},
		{runner.Shard{K: 1, N: 2}, []int{0, 2, 4}},
		{runner.Shard{K: 2, N: 2}, []int{5, 1, 3}},
	} {
		h := &Harness{Scale: 1024, Parallel: 1, Shard: tc.shard}
		sys := h.System()
		var order []int
		got, err := sweepShared(h, len(keys),
			func(i int) shared {
				s := h.replayCell(AllDesigns[i], "order", sys, open)
				s.key = keys[i]
				if i == bad {
					s.open = func() (trace.Stream, error) { return nil, errors.New("no trace") }
				}
				return s
			},
			func(i int, r RunResult, err error) error {
				order = append(order, i)
				return err
			})
		if !reflect.DeepEqual(order, tc.want) {
			t.Errorf("shard %q: cells dispatched %v, want %v", tc.shard, order, tc.want)
		}
		var errs runner.Errors
		if tc.shard.Owns(bad) && (!errors.As(err, &errs) || len(errs) != 1 || errs[0].Index != bad) {
			t.Errorf("shard %q: err = %v, want cell %d failed", tc.shard, err, bad)
		}
		for i, r := range got {
			if d, want := r.Design, string(AllDesigns[i]); tc.shard.Owns(i) && i != bad && d != want {
				t.Errorf("shard %q: result %d is %q, want %q", tc.shard, i, d, want)
			}
		}
	}
}

// pick's order, white-box: filtering comes first while the ring has
// room; then the worker's last consumer while it has a chunk ready; then
// the consumer furthest behind; and a failed consumer, the worker's own
// or another, gets its finish task instead of a replay.
func TestFanOutPickAffinity(t *testing.T) {
	h := &Harness{Scale: 1024}
	// newPicker returns a group that has filtered produced chunks and
	// whose consumers have replayed up to next.
	newPicker := func(produced int, next ...int) *group {
		g := newGroup(h)
		g.ring = make([]*cpu.Chunk, ringChunks)
		g.produced = produced
		for _, n := range next {
			g.cons = append(g.cons, &consumer{next: n})
		}
		g.live = len(g.cons)
		return g
	}
	picks := func(g *group, last *consumer, want *consumer) {
		t.Helper()
		task, c := g.pick(last)
		if task == nil || c != want || !c.busy {
			t.Fatalf("pick = (task %v, consumer %p busy %v), want a task for consumer %p",
				task != nil, c, c != nil && c.busy, want)
		}
	}

	// Chunks 1 and 2 are live and the ring holds 4: filtering comes
	// first, though the worker's last consumer has a chunk ready.
	g := newPicker(3, 1, 2, 3)
	if task, c := g.pick(g.cons[1]); task == nil || !g.producing || c != g.cons[1] {
		t.Fatalf("ring has room: pick = (task %v, producing %v), want the filter task", task != nil, g.producing)
	}
	// While that chunk is filtered, the next worker replays.
	picks(g, nil, g.cons[0])

	// The ring is full (consumer 0 still needs chunk 0): the worker keeps
	// replaying its last consumer while it has a chunk ready, though
	// consumer 0 is further behind; a worker without one takes consumer 0.
	g = newPicker(4, 0, 2, 1)
	picks(g, g.cons[1], g.cons[1])
	picks(g, nil, g.cons[0])

	// Its last consumer caught up, the worker takes the furthest-behind
	// idle consumer.
	g = newPicker(4, 0, 4, 1)
	picks(g, g.cons[1], g.cons[0])
	picks(g, g.cons[1], g.cons[2])
	if task, _ := g.pick(g.cons[1]); task != nil {
		t.Fatal("pick found a task with every consumer busy or caught up and the ring full")
	}

	// A failed consumer gets its finish task, never a replay, whether it
	// was the worker's last consumer or not.
	sys := h.System()
	forced := errors.New("forced consumer failure")
	for _, own := range []bool{false, true} {
		g = newPicker(4, 4, 0, 1)
		g.cons[1].busy = true // holds the ring full
		bad := g.cons[2]
		mem, err := Build(AllDesigns[0], sys)
		if err != nil {
			t.Fatal(err)
		}
		bad.sim = h.newSim(sys, mem, "pick", 0)
		if bad.core, err = cpu.NewCore(sys.Core, mem); err != nil {
			t.Fatal(err)
		}
		bad.fail = forced
		last := g.cons[0]
		if own {
			last = bad
		}
		task, c := g.pick(last)
		if task == nil || c != bad {
			t.Fatalf("own=%v: pick chose %p, want the failed consumer %p", own, c, bad)
		}
		task()
		if !bad.final || !errors.Is(bad.err, forced) || bad.next != 1 || g.live != 2 {
			t.Errorf("own=%v: after its task the failed consumer is final=%v err=%v next=%d (live %d), want finished with its failure",
				own, bad.final, bad.err, bad.next, g.live)
		}
	}
}
