package core

import (
	"strings"
	"testing"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/cpu"
	"repro/internal/trace"
)

// testSys returns a small system (HBM 4 MiB, DRAM 40 MiB, LLC 32 KiB)
// that keeps tests fast while preserving the LLC:HBM:DRAM ratios of
// Table I.
func testSys() config.System {
	return config.Default().Scaled(256)
}

func newBB(t testing.TB, sys config.System) *Bumblebee {
	t.Helper()
	b, err := New(sys)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// checkInvariants asserts the PRT/BLE/occupant cross-structure
// consistency that every mutation must preserve. The logic lives in the
// exported CheckInvariants (hmm.Inspector) so the lockstep differential
// checker in internal/check runs the same assertions mid-workload.
func checkInvariants(t *testing.T, b *Bumblebee) {
	t.Helper()
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// runWorkload runs n accesses of profile p through testSys's caches
// into mem.
func runWorkload(t *testing.T, mem cpu.Memory, p trace.Profile, n uint64) cpu.Result {
	t.Helper()
	sys := testSys()
	h, err := cache.NewHierarchy(sys.Caches)
	if err != nil {
		t.Fatal(err)
	}
	g, err := trace.NewSynthetic(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cpu.Run(sys.Core, h, mem, &trace.Limit{S: g, N: n})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// Profiles matched to the scaled system (HBM 4 MiB, DRAM 40 MiB).
var (
	// Strong spatial + strong temporal (mcf-like), fits mostly in HBM.
	hotSeq = trace.Profile{Name: "hotseq", FootprintBytes: 8 * addr.MiB, AvgGap: 3,
		RunMean: 48, HotFraction: 0.3, HotProbability: 0.9, WriteFraction: 0.3}
	// Weak spatial + strong temporal (wrf-like).
	hotScatter = trace.Profile{Name: "hotscatter", FootprintBytes: 16 * addr.MiB, AvgGap: 3,
		RunMean: 1.2, HotFraction: 0.05, HotProbability: 0.85, WriteFraction: 0.3}
	// Strong spatial + weak temporal (xz-like) streaming scan.
	coldStream = trace.Profile{Name: "coldstream", FootprintBytes: 32 * addr.MiB, AvgGap: 3,
		RunMean: 64, HotFraction: 0.3, HotProbability: 0.1, WriteFraction: 0.3}
	// Footprint beyond DRAM: spills into the HBM address range (HMF).
	spill = trace.Profile{Name: "spill", FootprintBytes: 43 * addr.MiB, AvgGap: 3,
		RunMean: 16, HotFraction: 0.2, HotProbability: 0.5, WriteFraction: 0.3}
)

func TestNewRejectsInvalidSystem(t *testing.T) {
	sys := testSys()
	sys.Core.MLP = 0
	if _, err := New(sys); err == nil {
		t.Error("invalid system accepted")
	}
}

func TestNameReflectsOptions(t *testing.T) {
	cases := []struct {
		ratio float64
		fixed bool
		want  string
	}{
		{0, false, "bumblebee"},
		{0, true, "m-only"},
		{1, true, "c-only"},
		{0.25, true, "25%-c"},
		{0.5, true, "50%-c"},
	}
	for _, c := range cases {
		sys := testSys()
		sys.Bumblebee.FixedRatio = c.fixed
		sys.Bumblebee.FixedCacheRatio = c.ratio
		b := newBB(t, sys)
		if got := b.Name(); got != c.want {
			t.Errorf("Name() with ratio %f fixed %v = %q, want %q", c.ratio, c.fixed, got, c.want)
		}
	}
}

func TestColdAccessAllocatesAndServes(t *testing.T) {
	b := newBB(t, testSys())
	done := b.Access(0, 0, false)
	if done == 0 {
		t.Fatal("access completed at cycle 0")
	}
	c := b.Counters()
	if c.Requests != 1 {
		t.Errorf("requests = %d", c.Requests)
	}
	if c.ServedHBM+c.ServedDRAM != 1 {
		t.Errorf("served counters = %+v", c)
	}
	checkInvariants(t, b)
}

func TestRepeatedAccessBecomesHBMResident(t *testing.T) {
	b := newBB(t, testSys())
	a := addr.Addr(0)
	var now uint64
	for i := 0; i < 50; i++ {
		now = b.Access(now, a, false)
	}
	c := b.Counters()
	if c.ServedHBM == 0 {
		t.Error("hot line never served from HBM")
	}
	checkInvariants(t, b)
}

func TestInvariantsUnderMixedWorkloads(t *testing.T) {
	for _, p := range []trace.Profile{hotSeq, hotScatter, coldStream, spill} {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			b := newBB(t, testSys())
			runWorkload(t, b, p, 300000)
			checkInvariants(t, b)
			c := b.Counters()
			if c.Requests == 0 {
				t.Fatal("no requests reached the memory system")
			}
		})
	}
}

func TestStrongSpatialPrefersMigration(t *testing.T) {
	b := newBB(t, testSys())
	runWorkload(t, b, hotSeq, 400000)
	c := b.Counters()
	if c.PageMigrations == 0 && c.ModeSwitches == 0 {
		t.Errorf("strong-spatial workload produced no migrations or switches: %+v", c)
	}
}

func TestWeakSpatialPrefersCaching(t *testing.T) {
	b := newBB(t, testSys())
	runWorkload(t, b, hotScatter, 400000)
	c := b.Counters()
	if c.BlockFills == 0 {
		t.Errorf("weak-spatial workload produced no block fills: %+v", c)
	}
	if c.BlockFills < c.PageMigrations {
		t.Errorf("weak-spatial workload migrated more pages (%d) than it filled blocks (%d)",
			c.PageMigrations, c.BlockFills)
	}
}

func TestModeSwitchOnDenseCaching(t *testing.T) {
	// Touch every block of one page repeatedly: it should first be cached
	// block by block and then switch to mHBM.
	b := newBB(t, testSys())
	blocks := b.geom.BlocksPerPage()
	var now uint64
	for pass := 0; pass < 3; pass++ {
		for blk := uint64(0); blk < blocks; blk++ {
			now = b.Access(now, addr.Addr(blk*b.geom.BlockSize), false)
		}
	}
	c := b.Counters()
	if c.ModeSwitches == 0 {
		t.Errorf("densely accessed page never switched to mHBM: %+v", c)
	}
	checkInvariants(t, b)
}

func TestFootprintSpillFlushesCHBM(t *testing.T) {
	// Fill set 0 completely: all 80 DRAM slots allocated, every HBM way
	// holding a cHBM page. An HBM-range page of the same set then has no
	// page space, which must trigger the HMF(5) batched flush. Alloc-D
	// keeps allocations out of the HBM ways so only cHBM occupies them.
	sys := testSys()
	sys.Bumblebee.AllocAllDRAM = true
	b := newBB(t, sys)
	sets := b.geom.Sets()
	var now uint64
	for i := uint64(0); i < b.geom.DRAMPagesPerSet(); i++ {
		page := i*sets + 0 // DRAM orig slot i of set 0
		now = b.Access(now, b.geom.PageAddr(page), false)
		now += 1 << 16 // refill the movement budget so caching proceeds
	}
	occupied := 0
	for w := range b.sets[0].bles {
		if b.sets[0].bles[w].mode != bleFree {
			occupied++
		}
	}
	if occupied == 0 {
		t.Fatal("setup failed: no cHBM pages in set 0")
	}
	evBefore := b.Counters().Evictions
	hbmRange := b.geom.DRAMPages() + 0 // first HBM-range page of set 0
	now = b.Access(now, b.geom.PageAddr(hbmRange), false)
	if !b.sets[0].cHBMOff {
		t.Error("flush did not latch cHBMOff")
	}
	if b.Counters().Evictions == evBefore && occupied > 0 {
		t.Error("flush evicted nothing")
	}
	if b.sets[0].newPLE[b.geom.SlotOf(hbmRange)] == -1 {
		t.Error("HBM-range page not allocated after flush")
	}
	checkInvariants(t, b)

	// With spare frames, caching must be able to recover.
	for i := 0; i < 4; i++ {
		now = b.Access(now, b.geom.PageAddr(0*sets+0), false)
	}
	// (recovery requires >=2 free ways; not guaranteed here, so only the
	// invariants are checked.)
	checkInvariants(t, b)
}

func TestSpillWorkloadAvoidsFaults(t *testing.T) {
	// Bumblebee's OS-visible capacity covers DRAM+HBM: a footprint that
	// spills past DRAM must not fault (the cache-only variant must).
	b := newBB(t, testSys())
	runWorkload(t, b, spill, 300000)
	if f := b.Counters().PageFaults; f != 0 {
		t.Errorf("adaptive design faulted %d times on a fitting footprint", f)
	}
	sysC := testSys()
	sysC.Bumblebee.FixedRatio = true
	sysC.Bumblebee.FixedCacheRatio = 1
	c := newBB(t, sysC)
	runWorkload(t, c, spill, 300000)
	if c.Counters().PageFaults == 0 {
		t.Error("C-Only never faulted on a footprint beyond DRAM")
	}
}

func TestNoHMFKeepsCHBMOn(t *testing.T) {
	sys := testSys()
	sys.Bumblebee.NoHMF = true
	b := newBB(t, sys)
	runWorkload(t, b, spill, 300000)
	for i, s := range b.sets {
		if s.cHBMOff {
			t.Fatalf("set %d flushed despite NoHMF", i)
		}
	}
}

func TestFixedRatioRegions(t *testing.T) {
	sys := testSys()
	sys.Bumblebee.FixedRatio = true
	sys.Bumblebee.FixedCacheRatio = 0.5
	b := newBB(t, sys)
	runWorkload(t, b, hotScatter, 300000)
	// Cached pages must only sit in ways [0, cacheWays).
	for si, s := range b.sets {
		for w := range s.bles {
			if s.bles[w].mode == bleCached && w >= b.cacheWays {
				t.Fatalf("set %d: cached page in POM way %d", si, w)
			}
		}
	}
	checkInvariants(t, b)
}

func TestCOnlyNeverMigrates(t *testing.T) {
	sys := testSys()
	sys.Bumblebee.FixedRatio = true
	sys.Bumblebee.FixedCacheRatio = 1
	b := newBB(t, sys)
	runWorkload(t, b, hotSeq, 300000)
	c := b.Counters()
	if c.PageMigrations != 0 || c.ModeSwitches != 0 {
		t.Errorf("C-Only migrated/switched: %+v", c)
	}
}

func TestMOnlyNeverCachesBlocks(t *testing.T) {
	sys := testSys()
	sys.Bumblebee.FixedRatio = true
	sys.Bumblebee.FixedCacheRatio = 0
	b := newBB(t, sys)
	runWorkload(t, b, hotScatter, 300000)
	c := b.Counters()
	if c.BlockFills != 0 {
		t.Errorf("M-Only filled blocks: %+v", c)
	}
	if c.PageMigrations == 0 {
		t.Errorf("M-Only never migrated: %+v", c)
	}
}

func TestMetaHGeneratesHBMTraffic(t *testing.T) {
	sys := testSys()
	sys.Bumblebee.MetadataInHBM = true
	b := newBB(t, sys)
	b.Access(0, 0, false)
	if b.Counters().MetaHBM == 0 {
		t.Error("Meta-H lookup did not touch HBM")
	}
}

func TestWritebackRouting(t *testing.T) {
	b := newBB(t, testSys())
	a := addr.Addr(0)
	var now uint64
	for i := 0; i < 30; i++ {
		now = b.Access(now, a, false)
	}
	hbmW := b.dev.HBM.Stats().WriteBytes
	b.Writeback(now, a)
	c := b.Counters()
	if c.Writebacks != 1 {
		t.Errorf("writebacks = %d", c.Writebacks)
	}
	if b.dev.HBM.Stats().WriteBytes <= hbmW {
		t.Error("writeback of an HBM-resident line did not write HBM")
	}
	checkInvariants(t, b)
}

func TestWritebackToColdPageGoesToDRAM(t *testing.T) {
	b := newBB(t, testSys())
	before := b.dev.DRAM.Stats().WriteBytes
	b.Writeback(0, addr.Addr(20*addr.MiB))
	if b.dev.DRAM.Stats().WriteBytes <= before {
		t.Error("writeback of a cold line did not write DRAM")
	}
}

func TestAllocOverflowAliasing(t *testing.T) {
	// C-Only dedicates every HBM frame to caching, so HBM-range pages of
	// a footprint beyond DRAM have no frame to live in: allocation must
	// fall back to aliasing (and charge paging) without corrupting state.
	// The adaptive design never aliases — flushing and evicting always
	// frees a frame for a fitting footprint — which other tests verify.
	sys := testSys()
	sys.Bumblebee.FixedRatio = true
	sys.Bumblebee.FixedCacheRatio = 1
	b := newBB(t, sys)
	huge := trace.Profile{Name: "huge", FootprintBytes: 43 * addr.MiB, AvgGap: 2,
		RunMean: 8, HotFraction: 0.3, HotProbability: 0.3, WriteFraction: 0.3}
	runWorkload(t, b, huge, 300000)
	if b.AllocOverflow == 0 {
		t.Error("HBM-range pages on C-Only never overflowed")
	}
}

func TestEvictionsHappenUnderPressure(t *testing.T) {
	b := newBB(t, testSys())
	runWorkload(t, b, coldStream, 500000)
	c := b.Counters()
	if c.Evictions == 0 {
		t.Errorf("streaming workload over 8x HBM capacity never evicted: %+v", c)
	}
	checkInvariants(t, b)
}

func TestOverfetchBounded(t *testing.T) {
	b := newBB(t, testSys())
	runWorkload(t, b, hotSeq, 400000)
	c := b.Counters()
	if c.FetchedBytes == 0 {
		t.Fatal("nothing fetched")
	}
	if r := c.OverfetchRate(); r < 0 || r > 1 {
		t.Errorf("overfetch rate = %f out of [0,1]", r)
	}
}

func TestMetadataBudgetFullScale(t *testing.T) {
	g, err := addr.NewGeometry(64*addr.KiB, 2*addr.KiB, 10*addr.GiB, 1*addr.GiB, 8)
	if err != nil {
		t.Fatal(err)
	}
	m := Metadata(g, 8)
	total := m.TotalBytes()
	// Paper: 334 KB (110 PRT + 136 BLE + 88 hotness). Our bit-exact
	// accounting lands in the same few-hundred-KB regime and must fit the
	// 512 KB SRAM budget.
	if total > 512*addr.KiB {
		t.Errorf("metadata %d bytes exceeds the 512KB SRAM budget", total)
	}
	if total < 128*addr.KiB {
		t.Errorf("metadata %d bytes implausibly small", total)
	}
	if m.BLEBytes < 100*addr.KiB || m.BLEBytes > 180*addr.KiB {
		t.Errorf("BLE array = %d KB, paper says 136 KB", m.BLEBytes/addr.KiB)
	}
}

func TestMetadataOrdersOfMagnitudeBelowBaselines(t *testing.T) {
	g, err := addr.NewGeometry(64*addr.KiB, 2*addr.KiB, 10*addr.GiB, 1*addr.GiB, 8)
	if err != nil {
		t.Fatal(err)
	}
	ours := float64(Metadata(g, 8).TotalBytes())
	base := Baselines(g)
	for name, theirs := range map[string]uint64{
		"alloy": base.AlloyBytes, "hybrid2": base.Hybrid2Bytes,
	} {
		if float64(theirs) < 10*ours {
			t.Errorf("%s metadata %d bytes not >=10x ours %f", name, theirs, ours)
		}
	}
}

func TestMetadataString(t *testing.T) {
	b := newBB(t, testSys())
	s := b.Metadata().String()
	if s == "" {
		t.Error("empty metadata string")
	}
}

func TestZombieEviction(t *testing.T) {
	sys := testSys()
	sys.Bumblebee.ZombieWindow = 64 // tighten for the test
	b := newBB(t, sys)
	// Fill one set's HBM completely with migrated pages, then hammer a
	// single different DRAM page of the same set so the head of the HBM
	// queue goes stale.
	setStride := b.geom.Sets() * b.geom.PageSize
	var now uint64
	for i := uint64(0); i < b.geom.HBMPagesPerSet()+2; i++ {
		base := addr.Addr(i * setStride)
		for blk := uint64(0); blk < b.geom.BlocksPerPage(); blk++ {
			now = b.Access(now, base+addr.Addr(blk*b.geom.BlockSize), false)
		}
	}
	evBefore := b.Counters().Evictions
	hammer := addr.Addr((b.geom.HBMPagesPerSet() + 10) * setStride)
	for i := 0; i < 400; i++ {
		now = b.Access(now, hammer, false)
	}
	if b.Counters().Evictions == evBefore && b.Counters().PageSwaps == 0 {
		t.Error("stale HBM pages never evicted or swapped under single-page hammering")
	}
	checkInvariants(t, b)
}

func TestDumpSetAndSummary(t *testing.T) {
	b := newBB(t, testSys())
	runWorkload(t, b, hotSeq, 100000)
	var sb strings.Builder
	if err := b.DumpSet(&sb, 0); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"set 0:", "way 0:", "hot HBM", "hot DRAM", "SL="} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}
	if err := b.DumpSet(&sb, 1<<40); err == nil {
		t.Error("out-of-range set accepted")
	}
	sb.Reset()
	b.Summary(&sb)
	if !strings.Contains(sb.String(), "frames:") || !strings.Contains(sb.String(), "mover:") {
		t.Errorf("summary incomplete:\n%s", sb.String())
	}
}

func TestNoMultiplexCostsExtraMovement(t *testing.T) {
	// The same dense-caching sequence: with separate spaces (No-Multi),
	// the cHBM->mHBM switch must copy the whole page inside HBM, so HBM
	// traffic is strictly higher than with the multiplexed space.
	run := func(noMulti bool) uint64 {
		sys := testSys()
		sys.Bumblebee.NoMultiplex = noMulti
		b := newBB(t, sys)
		blocks := b.geom.BlocksPerPage()
		var now uint64
		for pass := 0; pass < 3; pass++ {
			for blk := uint64(0); blk < blocks; blk++ {
				now = b.Access(now, addr.Addr(blk*b.geom.BlockSize), false)
				now += 1 << 14 // keep the movement budget refilled
			}
		}
		if b.Counters().ModeSwitches == 0 {
			t.Fatal("no mode switch happened")
		}
		return b.dev.HBM.Stats().TotalBytes()
	}
	multiplexed := run(false)
	separate := run(true)
	if separate <= multiplexed {
		t.Errorf("No-Multi HBM traffic %d not above multiplexed %d", separate, multiplexed)
	}
	// The gap must cover at least one extra page copy (read+write).
	if separate-multiplexed < 2*testSys().PageBytes {
		t.Errorf("No-Multi extra traffic %d below one page copy", separate-multiplexed)
	}
}

func TestMetaHSlowsRequests(t *testing.T) {
	runLat := func(inHBM bool) float64 {
		sys := testSys()
		sys.Bumblebee.MetadataInHBM = inHBM
		b := newBB(t, sys)
		res := runWorkload(t, b, hotScatter, 120000)
		return res.AvgMissLatency()
	}
	sram := runLat(false)
	hbm := runLat(true)
	if hbm <= sram {
		t.Errorf("Meta-H latency %f not above SRAM %f", hbm, sram)
	}
}
