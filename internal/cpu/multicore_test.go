package cpu

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/trace"
	"repro/internal/tracecodec"
)

func runMulti(t *testing.T, mem Memory, streams ...trace.Stream) []Result {
	t.Helper()
	sys := config.Default()
	res, err := RunMulti(sys.Core, sys.Caches, streams, mem)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunMultiValidation(t *testing.T) {
	mem := &fixedMem{lat: 100}
	sys := config.Default()
	one := func() []trace.Stream { return []trace.Stream{stream(t, cacheFit, 10)} }
	if _, err := RunMulti(sys.Core, sys.Caches, nil, mem); err == nil {
		t.Error("no streams accepted")
	}
	if _, err := RunMulti(sys.Core, sys.Caches[:1], one(), mem); err == nil {
		t.Error("a lone cache level accepted")
	}
	if _, err := RunMulti(config.Core{MLP: 0, CPIBase: 1}, sys.Caches, one(), mem); err == nil {
		t.Error("invalid core accepted")
	}
}

func TestRunMultiMatchesWorkload(t *testing.T) {
	mem := &fixedMem{lat: 300}
	res := runMulti(t, mem, stream(t, memHeavy, 50000), stream(t, cacheFit, 50000))
	if len(res) != 2 {
		t.Fatalf("results = %d", len(res))
	}
	for i, r := range res {
		if r.Accesses != 50000 {
			t.Errorf("thread %d accesses = %d", i, r.Accesses)
		}
		if r.IPC() <= 0 {
			t.Errorf("thread %d IPC = %f", i, r.IPC())
		}
	}
	// The memory-heavy thread must miss the LLC far more often.
	if res[0].LLCMisses < res[1].LLCMisses*2 {
		t.Errorf("memHeavy misses %d not above cacheFit %d", res[0].LLCMisses, res[1].LLCMisses)
	}
}

func TestSharedLLCContention(t *testing.T) {
	// Two threads with disjoint hot sets that together exceed the LLC
	// must see more misses than either alone.
	// Each hot set (~4.5 MB) fits the 8 MB LLC alone but not together.
	mkP := func(name string, base uint64) trace.Profile {
		return trace.Profile{Name: name, FootprintBytes: 5 * addr.MiB, AvgGap: 4,
			RunMean: 4, HotFraction: 0.9, HotProbability: 0.95, WriteFraction: 0.2, Seed: base}
	}
	mem := &fixedMem{lat: 300}
	solo := runMulti(t, mem, stream(t, mkP("a", 1), 400000))
	// Give the second thread its own address space; otherwise the two
	// threads share data and warm the LLC for each other.
	b := &trace.Offset{S: stream(t, mkP("b", 2), 400000), Delta: 64 * addr.MiB}
	duo := runMulti(t, &fixedMem{lat: 300}, stream(t, mkP("a", 1), 400000), b)
	soloRate := float64(solo[0].LLCMisses) / float64(solo[0].Accesses)
	duoRate := float64(duo[0].LLCMisses) / float64(duo[0].Accesses)
	if duoRate < soloRate {
		t.Errorf("shared-LLC contention absent: solo miss rate %f, duo %f", soloRate, duoRate)
	}
}

func TestMultiWritebacksReachMemory(t *testing.T) {
	mem := &fixedMem{lat: 100}
	p := trace.Profile{Name: "dirty", FootprintBytes: 64 * addr.MiB, AvgGap: 2,
		RunMean: 4, HotFraction: 0.5, HotProbability: 0.1, WriteFraction: 1}
	runMulti(t, mem, stream(t, p, 200000))
	if mem.writebacks == 0 {
		t.Error("no writebacks reached memory")
	}
}

func TestGlobalTimeInterleaving(t *testing.T) {
	// A fast (cache-resident) and a slow (memory-bound) thread: both
	// finish, and the slow one's cycle count exceeds the fast one's.
	mem := &fixedMem{lat: 2000}
	res := runMulti(t, mem, stream(t, cacheFit, 30000), stream(t, memHeavy, 30000))
	if res[1].Cycles <= res[0].Cycles {
		t.Errorf("memory-bound thread cycles %d <= cache-resident %d", res[1].Cycles, res[0].Cycles)
	}
}

// A damaged trace fails the multi-core run, also under the address
// offset the mix puts on every core's stream: a short run would read as
// a clean one.
func TestRunMultiDamagedStreamFails(t *testing.T) {
	var buf bytes.Buffer
	w := tracecodec.NewAccessWriter(tracecodec.NewWriter(&buf, tracecodec.Format{Kind: tracecodec.KindBinary}))
	st := stream(t, memHeavy, 3*4096+100)
	for a, ok := st.Next(); ok; a, ok = st.Next() {
		if err := w.Write(a); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)-40] ^= 0xff // inside the last frame: decodes part-way, then fails
	r, err := tracecodec.Open(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	damaged := &trace.Offset{S: tracecodec.NewStream(r), Delta: 64 * addr.MiB}
	sys := config.Default()
	res, err := RunMulti(sys.Core, sys.Caches, []trace.Stream{damaged, stream(t, cacheFit, 1000)}, &fixedMem{lat: 100})
	if err == nil {
		t.Fatalf("damaged stream ran clean: %+v", res)
	}
}

// memReq is one request a core sent to memory.
type memReq struct {
	now              uint64
	a                addr.Addr
	write, writeback bool
}

// logMem logs every request and answers each miss after a latency that
// depends on its issue time, so two runs leave the same log and the same
// timing only if they issue the same requests at the same times.
type logMem struct{ log []memReq }

func (m *logMem) Access(now uint64, a addr.Addr, write bool) uint64 {
	m.log = append(m.log, memReq{now, a, write, false})
	return now + 100 + (now*2654435761)>>16%400
}

func (m *logMem) Writeback(now uint64, a addr.Addr) {
	m.log = append(m.log, memReq{now, a, false, true})
}

// One core of RunMulti is the single-core machine: its private levels
// and the shared LLC make up the whole hierarchy, so it must issue Run's
// memory requests at Run's times and report Run's result. The caches are
// Table I's at 1/32 the size, so dirty lines leave every level.
func TestRunMultiOneCoreMatchesRun(t *testing.T) {
	sys := config.Default()
	caches := slices.Clone(sys.Caches)
	for i := range caches {
		caches[i].SizeBytes /= 32
	}
	llcFit := trace.Profile{Name: "llc-fit", FootprintBytes: 192 * addr.KiB, AvgGap: 4,
		RunMean: 2, HotFraction: 0.5, HotProbability: 0.5, WriteFraction: 0.3}
	allWrites := memHeavy
	allWrites.Name, allWrites.WriteFraction = "writes", 1
	for _, p := range []trace.Profile{memHeavy, llcFit, allWrites} {
		h, err := cache.NewHierarchy(caches)
		if err != nil {
			t.Fatal(err)
		}
		wantMem, gotMem := &logMem{}, &logMem{}
		want, err := Run(sys.Core, h, wantMem, stream(t, p, 50000))
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunMulti(sys.Core, caches, []trace.Stream{stream(t, p, 50000)}, gotMem)
		if err != nil {
			t.Fatal(err)
		}
		if res[0] != want {
			t.Errorf("%s: RunMulti %+v, Run %+v", p.Name, res[0], want)
		}
		if !slices.Equal(gotMem.log, wantMem.log) {
			t.Errorf("%s: RunMulti sent %d memory requests, Run %d, and the logs differ",
				p.Name, len(gotMem.log), len(wantMem.log))
		}
	}
}
