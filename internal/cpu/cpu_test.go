package cpu

import (
	"math/rand"
	"testing"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/trace"
)

// fixedMem serves every miss with a constant latency.
type fixedMem struct {
	lat        uint64
	accesses   uint64
	writebacks uint64
}

func (m *fixedMem) Access(now uint64, a addr.Addr, write bool) uint64 {
	m.accesses++
	return now + m.lat
}

func (m *fixedMem) Writeback(now uint64, a addr.Addr) { m.writebacks++ }

func hier(t *testing.T) *cache.Hierarchy {
	t.Helper()
	h, err := cache.NewHierarchy(config.Default().Caches)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func stream(t *testing.T, p trace.Profile, n uint64) trace.Stream {
	t.Helper()
	g, err := trace.NewSynthetic(p)
	if err != nil {
		t.Fatal(err)
	}
	return &trace.Limit{S: g, N: n}
}

var memHeavy = trace.Profile{Name: "heavy", FootprintBytes: 64 * addr.MiB, AvgGap: 4,
	RunMean: 2, HotFraction: 0.5, HotProbability: 0.1, WriteFraction: 0.3}

var cacheFit = trace.Profile{Name: "fit", FootprintBytes: 256 * addr.KiB, AvgGap: 4,
	RunMean: 2, HotFraction: 0.5, HotProbability: 0.5, WriteFraction: 0.3}

func TestRunRejectsBadCore(t *testing.T) {
	if _, err := Run(config.Core{MLP: 0, CPIBase: 1}, hier(t), &fixedMem{lat: 10}, stream(t, cacheFit, 10)); err == nil {
		t.Error("zero MLP accepted")
	}
	if _, err := Run(config.Core{MLP: 4, CPIBase: 0}, hier(t), &fixedMem{lat: 10}, stream(t, cacheFit, 10)); err == nil {
		t.Error("zero CPI accepted")
	}
}

func TestCacheResidentIPCNearIdeal(t *testing.T) {
	core := config.Default().Core
	mem := &fixedMem{lat: 1000}
	h := hier(t)
	// Warm the caches, then measure a second pass over the same stream.
	g, err := trace.NewSynthetic(cacheFit)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(core, h, mem, &trace.Limit{S: g, N: 200000}); err != nil {
		t.Fatal(err)
	}
	res, err := Run(core, h, mem, &trace.Limit{S: g, N: 200000})
	if err != nil {
		t.Fatal(err)
	}
	// A cache-resident workload should achieve IPC close to 1/CPIBase.
	ideal := 1 / core.CPIBase
	if res.IPC() < ideal*0.4 {
		t.Errorf("cache-resident IPC = %f, ideal %f", res.IPC(), ideal)
	}
	if res.MPKI() > 3 {
		t.Errorf("cache-resident MPKI = %f, want small", res.MPKI())
	}
}

func TestSlowerMemoryLowersIPC(t *testing.T) {
	core := config.Default().Core
	fast, err := Run(core, hier(t), &fixedMem{lat: 100}, stream(t, memHeavy, 200000))
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Run(core, hier(t), &fixedMem{lat: 1000}, stream(t, memHeavy, 200000))
	if err != nil {
		t.Fatal(err)
	}
	if slow.IPC() >= fast.IPC() {
		t.Errorf("IPC with slow memory %f >= fast %f", slow.IPC(), fast.IPC())
	}
	if fast.MPKI() < 5 {
		t.Errorf("memHeavy MPKI = %f, expected memory-bound workload", fast.MPKI())
	}
}

func TestMLPOverlapsMisses(t *testing.T) {
	coreWide := config.Core{FreqMHz: 3600, CPIBase: 0.6, MLP: 16}
	coreNarrow := config.Core{FreqMHz: 3600, CPIBase: 0.6, MLP: 1}
	wide, err := Run(coreWide, hier(t), &fixedMem{lat: 500}, stream(t, memHeavy, 100000))
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := Run(coreNarrow, hier(t), &fixedMem{lat: 500}, stream(t, memHeavy, 100000))
	if err != nil {
		t.Fatal(err)
	}
	if wide.IPC() <= narrow.IPC()*1.5 {
		t.Errorf("MLP16 IPC %f not clearly above MLP1 IPC %f", wide.IPC(), narrow.IPC())
	}
}

func TestWritebacksReachMemory(t *testing.T) {
	mem := &fixedMem{lat: 200}
	p := trace.Profile{Name: "dirty", FootprintBytes: 64 * addr.MiB, AvgGap: 2,
		RunMean: 4, HotFraction: 0.5, HotProbability: 0.1, WriteFraction: 1.0}
	res, err := Run(config.Default().Core, hier(t), mem, stream(t, p, 500000))
	if err != nil {
		t.Fatal(err)
	}
	if mem.writebacks == 0 {
		t.Error("no writebacks reached memory for an all-store workload")
	}
	if res.Writebacks != mem.writebacks {
		t.Errorf("result writebacks %d != memory writebacks %d", res.Writebacks, mem.writebacks)
	}
}

func TestResultMetrics(t *testing.T) {
	r := Result{Instructions: 2000, Cycles: 1000, LLCMisses: 4, TotalMissLatency: 800}
	if r.IPC() != 2 {
		t.Errorf("IPC = %f", r.IPC())
	}
	if r.MPKI() != 2 {
		t.Errorf("MPKI = %f", r.MPKI())
	}
	if r.AvgMissLatency() != 200 {
		t.Errorf("avg miss latency = %f", r.AvgMissLatency())
	}
	zero := Result{}
	if zero.IPC() != 0 || zero.MPKI() != 0 || zero.AvgMissLatency() != 0 {
		t.Error("zero result metrics not zero")
	}
}

func TestMissCountMatchesMemoryAccesses(t *testing.T) {
	mem := &fixedMem{lat: 300}
	res, err := Run(config.Default().Core, hier(t), mem, stream(t, memHeavy, 100000))
	if err != nil {
		t.Fatal(err)
	}
	if res.LLCMisses != mem.accesses {
		t.Errorf("LLC misses %d != memory accesses %d", res.LLCMisses, mem.accesses)
	}
}

// TestRunEqualsHalves: Run is the filter and core halves composed, so
// replaying one filtered stream into several cores must give each the
// result of its own Run, at every chunking the access buffer allows.
func TestRunEqualsHalves(t *testing.T) {
	core := config.Default().Core
	for _, bufLen := range []int{1, 7, AccessBufferSize()} {
		want, err := Run(core, hier(t), &fixedMem{lat: 300}, stream(t, memHeavy, 20000),
			WithAccessBuffer(make([]trace.Access, bufLen)))
		if err != nil {
			t.Fatal(err)
		}
		f := NewFilter(hier(t), stream(t, memHeavy, 20000))
		cores := make([]*Core, 3)
		for i := range cores {
			if cores[i], err = NewCore(core, &fixedMem{lat: 300}); err != nil {
				t.Fatal(err)
			}
		}
		ch := &Chunk{}
		ch.use(make([]trace.Access, bufLen))
		for {
			ok, err := f.Next(ch)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			if ch.Len() > bufLen {
				t.Fatalf("chunk of %d accesses from a %d-access buffer", ch.Len(), bufLen)
			}
			for _, c := range cores {
				c.Replay(ch)
			}
		}
		for i, c := range cores {
			if got := c.Finish(); got != want {
				t.Errorf("buffer %d, core %d: %+v, want %+v", bufLen, i, got, want)
			}
		}
	}
}

// scanWindow is the unsorted MLP window that missWindow replaced: a full
// window scans every slot for the earliest completion, removes it by
// swapping in the last slot, and drain scans for the latest.
type scanWindow []float64

func (w *scanWindow) issue(time float64, mlp int, lookup float64, mem Memory, a addr.Addr, write bool) (float64, uint64) {
	o := *w
	if len(o) >= mlp {
		min, idx := o[0], 0
		for i, c := range o {
			if c < min {
				min, idx = c, i
			}
		}
		if min > time {
			time = min
		}
		o[idx] = o[len(o)-1]
		o = o[:len(o)-1]
	}
	issue := time + lookup
	done := float64(mem.Access(uint64(issue), a, write))
	if done < issue {
		done = issue
	}
	*w = append(o, done)
	return time, uint64(done - time)
}

func (w scanWindow) drain(time float64) float64 {
	for _, c := range w {
		if c > time {
			time = c
		}
	}
	return time
}

// jitterMem completes each miss a pseudo-random time after it issues —
// sometimes before it, which the window must clamp — so completions
// arrive out of order. Two jitterMems with one seed answer identically.
type jitterMem struct{ r *rand.Rand }

func (m *jitterMem) Access(now uint64, a addr.Addr, write bool) uint64 {
	if m.r.Intn(8) == 0 {
		return now - uint64(m.r.Intn(int(now%64)+1))
	}
	return now + uint64(m.r.Intn(600))
}

func (m *jitterMem) Writeback(now uint64, a addr.Addr) {}

// TestMissWindowMatchesScan drives the sorted window and the scanning
// one with the same random completions at every MLP from 1 to 8: each
// issue must return the same (time, latency) pair, and drain the same
// end time, at every step.
func TestMissWindowMatchesScan(t *testing.T) {
	for mlp := 1; mlp <= 8; mlp++ {
		for seed := int64(0); seed < 20; seed++ {
			got, want := make(missWindow, 0, mlp), make(scanWindow, 0, mlp)
			gotMem, wantMem := &jitterMem{rand.New(rand.NewSource(seed))}, &jitterMem{rand.New(rand.NewSource(seed))}
			steps := rand.New(rand.NewSource(^seed))
			gt, wt := 0.0, 0.0
			for i := 0; i < 2000; i++ {
				gap := float64(steps.Intn(40)) * 0.75
				lookup := float64(steps.Intn(60))
				gt, wt = gt+gap, wt+gap
				var glat, wlat uint64
				gt, glat = got.issue(gt, mlp, lookup, gotMem, 0, false)
				wt, wlat = want.issue(wt, mlp, lookup, wantMem, 0, false)
				if gt != wt || glat != wlat {
					t.Fatalf("mlp %d seed %d issue %d: sorted (%v, %d), scan (%v, %d)", mlp, seed, i, gt, glat, wt, wlat)
				}
				if g, w := got.drain(gt), want.drain(wt); g != w {
					t.Fatalf("mlp %d seed %d issue %d: drain sorted %v, scan %v", mlp, seed, i, g, w)
				}
			}
		}
	}
}
