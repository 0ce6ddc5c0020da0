package core

import (
	"fmt"
	"math"

	"repro/internal/addr"
	"repro/internal/config"
	"repro/internal/hmm"
	"repro/internal/telemetry"
)

// Bumblebee is the hybrid memory management controller. It implements
// hmm.MemSystem: every LLC miss walks the Figure 5 flow (PRT lookup →
// mHBM / cHBM / off-chip DRAM) and may trigger asynchronous caching,
// migration, mode switches and evictions per Section III-E.
type Bumblebee struct {
	sys   config.System
	opt   config.BumblebeeOptions
	dev   *hmm.Devices
	geom  *addr.Geometry
	meta  *hmm.Meta
	ft    *hmm.FetchTracker
	mover *hmm.Mover
	osmem *hmm.OSMem

	sets []*pset
	cnt  hmm.Counters

	m, n          int // DRAM and HBM pages per set
	blocksPerPage int
	halfBlocks    int // "most blocks" threshold
	cacheWays     int // fixed cHBM ways per set; -1 when adaptive

	// AllocOverflow counts aliasing fallbacks when a set is completely
	// full (OS footprint beyond physical memory).
	AllocOverflow uint64

	// pendingRetire holds frames the fault injector retired whose
	// evacuation was deferred by movement-engine contention (see ras.go).
	pendingRetire []retirement
}

var _ hmm.MemSystem = (*Bumblebee)(nil)

// New builds a Bumblebee controller on fresh devices for sys.
func New(sys config.System) (*Bumblebee, error) {
	dev, err := hmm.NewDevices(sys)
	if err != nil {
		return nil, err
	}
	return NewWithDevices(sys, dev)
}

// NewWithDevices builds a Bumblebee controller on existing devices.
func NewWithDevices(sys config.System, dev *hmm.Devices) (*Bumblebee, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	g := dev.Geom
	b := &Bumblebee{
		sys:           sys,
		opt:           sys.Bumblebee,
		dev:           dev,
		geom:          g,
		meta:          hmm.NewMeta(sys, dev, sys.Bumblebee.MetadataInHBM),
		ft:            hmm.NewFetchTracker(g.PageSize),
		m:             int(g.DRAMPagesPerSet()),
		n:             int(g.HBMPagesPerSet()),
		blocksPerPage: int(g.BlocksPerPage()),
	}
	// Movement budget: half the off-chip DRAM peak bandwidth (every page
	// movement crosses the DRAM bus at least once, so DRAM is the binding
	// constraint).
	dramBytesPerCycle := sys.DRAM.PeakBandwidthGBs() * 1e9 / (float64(sys.Core.FreqMHz) * 1e6)
	b.mover = hmm.NewMover(0.5 * dramBytesPerCycle)
	// "Most blocks" threshold for the cHBM->mHBM switch and for the
	// Na/Nn spatial classification: three quarters of the page. A bare
	// majority switches too eagerly — pages one block past half flip to
	// mHBM, only to be demoted and pay the full-page eviction later.
	b.halfBlocks = b.blocksPerPage * 3 / 4
	b.cacheWays = -1
	if b.opt.FixedRatio {
		b.cacheWays = int(math.Round(b.opt.FixedCacheRatio * float64(b.n)))
		if b.cacheWays > b.n {
			b.cacheWays = b.n
		}
	}
	// OS-visible capacity: the adaptive design can hand every HBM frame
	// to the OS (the HMF(5) flush guarantees it under pressure); fixed
	// ratio variants permanently hide the cache partition.
	visible := g.DRAMBytes + g.HBMBytes
	if b.opt.FixedRatio {
		visible = g.DRAMBytes + uint64(float64(g.HBMBytes)*(1-b.opt.FixedCacheRatio))
	}
	b.osmem = hmm.NewOSMem(visible, g.PageSize, sys.PageFaultNS, sys.Core.FreqMHz)

	if b.m+b.n > math.MaxInt16 {
		return nil, fmt.Errorf("core: %d pages per set exceeds PLE range", b.m+b.n)
	}
	b.sets = make([]*pset, g.Sets())
	for i := range b.sets {
		b.sets[i] = newPset(b.m, b.n, b.blocksPerPage, b.opt.HotQueueDepth, 4)
	}
	return b, nil
}

// Name implements hmm.MemSystem.
func (b *Bumblebee) Name() string {
	if b.opt.FixedRatio {
		switch b.cacheWays {
		case 0:
			return "m-only"
		case b.n:
			return "c-only"
		default:
			return fmt.Sprintf("%d%%-c", int(b.opt.FixedCacheRatio*100))
		}
	}
	return "bumblebee"
}

// Devices implements hmm.MemSystem.
func (b *Bumblebee) Devices() *hmm.Devices { return b.dev }

// Counters implements hmm.MemSystem.
func (b *Bumblebee) Counters() hmm.Counters {
	c := b.cnt
	c.FetchedBytes = b.ft.Fetched
	c.UsedBytes = b.ft.Used
	c.MetaLookups = b.meta.Lookups
	c.MetaHBM = b.meta.HBMHits
	c.PageFaults = b.osmem.Faults
	b.dev.AddRAS(&c)
	return c
}

// FrameModes reports how many HBM page frames currently serve as cHBM,
// as mHBM, and are free (retired frames included) — the live cHBM:mHBM
// ratio that the statically reconfigurable designs of Figure 7 pin at
// boot. It is a view of TelemetryState's frame tally.
func (b *Bumblebee) FrameModes() (cached, mhbm, free int) {
	st := b.TelemetryState()
	return int(st.CHBMFrames), int(st.MHBMFrames), int(st.FreeFrames + st.RetiredFrames)
}

// off64 returns the 64 B-aligned byte offset of a within its page.
func (b *Bumblebee) off64(a addr.Addr) uint64 {
	return b.geom.PageOffset(a) &^ 63
}

// Access implements hmm.MemSystem: the Figure 5 memory access path.
func (b *Bumblebee) Access(now uint64, a addr.Addr, write bool) uint64 {
	t0 := now
	tier := telemetry.TierDRAM
	b.cnt.Requests++
	b.drainRetirements(now)
	now = b.osmem.Admit(now, a)
	p := b.geom.FoldPage(b.geom.PageOf(a))
	setIdx := b.geom.SetOf(p)
	s := b.sets[setIdx]

	// All metadata (PRT, BLE array, hotness tracker) is queried in one
	// SRAM (or in-HBM, for Meta-H) lookup on the critical path.
	done := b.meta.Lookup(now, setIdx)
	s.hot.tick()

	orig := int16(b.geom.SlotOf(p))

	// HMF(5): an address in the HBM range of the flat address space means
	// the OS footprint spilled past off-chip DRAM. When such a page needs
	// page space and the set has none, cHBM pages in a batch of sets are
	// flushed so allocations find free frames without waiting for
	// evictions. Once a set again has spare frames beyond the OS's needs,
	// they may serve as cHBM ("until the OS memory footprint drops").
	if !b.opt.NoHMF {
		if b.geom.IsHBMPage(p) {
			if s.newPLE[orig] == -1 && !s.cHBMOff &&
				s.freeHBMWay(0, b.n) < 0 && s.freeDRAMSlot(b.m) < 0 {
				b.flushCHBMBatch(now, setIdx)
			}
		} else if s.cHBMOff && s.countFreeHBM() >= 2 {
			s.cHBMOff = false
		}
	}
	if s.newPLE[orig] == -1 { // ① PRT miss: allocate
		if ready := b.allocate(now, setIdx, s, orig); ready > done {
			done = ready
		}
	}
	actual := s.newPLE[orig]
	if s.aliased[orig] && b.geom.PageAddr(p) < b.osmem.Limit {
		// The page nominally fits OS-visible memory but has no frame
		// (the design could not free one): the OS must page on every
		// touch.
		done = b.osmem.Fault(done)
	}
	blk := b.geom.BlockInPage(a)
	off := b.off64(a)

	var dataDone uint64
	if b.geom.IsHBMSlot(uint64(actual)) {
		// ③ page resides in mHBM.
		w := wayOfSlot(actual, b.m)
		frame := b.geom.HBMFrameOfSlot(setIdx, uint64(actual))
		if write {
			dataDone = b.dev.WriteHBM(done, frame, off, 64)
		} else {
			dataDone = b.dev.ReadHBM(done, frame, off, 64)
		}
		e := &s.bles[w]
		e.valid.set(blk) // spatial-locality tracking
		if write {
			e.dirty.set(blk) // diverges from any shadow copy
		}
		b.recount(s, w)
		b.ft.OnUse(frame, off, 64)
		b.touchHBMPage(now, setIdx, s, orig)
		b.cnt.ServedHBM++
		tier = telemetry.TierMHBM
	} else {
		// ④ page homed in off-chip DRAM.
		w := s.findCachedWay(orig)
		if w >= 0 && s.bles[w].valid.get(blk) {
			// ⑦ block cached in cHBM.
			frame := b.geom.HBMFrameOfSlot(setIdx, uint64(b.m+w))
			boff := off
			if write {
				dataDone = b.dev.WriteHBM(done, frame, boff, 64)
				s.bles[w].dirty.set(blk)
			} else {
				dataDone = b.dev.ReadHBM(done, frame, boff, 64)
			}
			b.ft.OnUse(frame, boff, 64)
			b.touchHBMPage(now, setIdx, s, orig)
			b.cnt.ServedHBM++
			tier = telemetry.TierCHBM
		} else {
			// ⑤ page not cached, or ⑧ block not cached: off-chip DRAM.
			dframe := b.geom.DRAMFrameOfSlot(setIdx, uint64(actual))
			if write {
				dataDone = b.dev.WriteDRAM(done, dframe, off, 64)
			} else {
				dataDone = b.dev.ReadDRAM(done, dframe, off, 64)
			}
			b.cnt.ServedDRAM++
			if w >= 0 {
				// Rule (2): cache the missing block; maybe mode switch.
				// Under full HBM occupancy the threshold T gates block
				// fills too — "only blocks in a page whose hotness value
				// is larger than T are permitted to be cached".
				n := b.touchHBMPage(now, setIdx, s, orig)
				if !s.fullHBM() || n > s.hot.hbm.minCount() {
					b.cacheBlock(now, setIdx, s, w, orig, actual, blk)
				}
			} else {
				// Rule (1): decide migration vs. caching vs. nothing.
				hotness := b.touchDRAMPage(now, setIdx, s, orig)
				b.moveDecision(now, setIdx, s, orig, actual, blk, hotness)
			}
		}
	}

	b.zombieCheck(now, setIdx, s)
	ret := done
	if dataDone > done {
		ret = dataDone
	}
	b.dev.Tel.ObserveAccess(tier, t0, ret)
	return ret
}

// Writeback implements hmm.MemSystem: an LLC dirty eviction lands on
// whichever copy of the line is current.
func (b *Bumblebee) Writeback(now uint64, a addr.Addr) {
	b.cnt.Writebacks++
	p := b.geom.FoldPage(b.geom.PageOf(a))
	setIdx := b.geom.SetOf(p)
	s := b.sets[setIdx]
	orig := int16(b.geom.SlotOf(p))
	if s.newPLE[orig] == -1 {
		b.allocate(now, setIdx, s, orig)
	}
	actual := s.newPLE[orig]
	blk := b.geom.BlockInPage(a)
	off := b.off64(a)
	if b.geom.IsHBMSlot(uint64(actual)) {
		frame := b.geom.HBMFrameOfSlot(setIdx, uint64(actual))
		b.dev.WriteHBM(now, frame, off, 64)
		w := wayOfSlot(actual, b.m)
		s.bles[w].valid.set(blk)
		s.bles[w].dirty.set(blk)
		b.recount(s, w)
		return
	}
	if w := s.findCachedWay(orig); w >= 0 && s.bles[w].valid.get(blk) {
		frame := b.geom.HBMFrameOfSlot(setIdx, uint64(b.m+w))
		b.dev.WriteHBM(now, frame, off, 64)
		s.bles[w].dirty.set(blk)
		return
	}
	dframe := b.geom.DRAMFrameOfSlot(setIdx, uint64(actual))
	b.dev.WriteDRAM(now, dframe, off, 64)
}

// touchHBMPage updates the hot table for an access to an HBM-resident
// page (mHBM or cHBM copy) and returns the page's hotness counter. The
// HBM queue names each resident page at most once (CheckInvariants), so
// when orig is missing from it the queue has room and the push pops
// nothing: the pushed count is orig's count in the queue.
func (b *Bumblebee) touchHBMPage(now uint64, setIdx uint64, s *pset, orig int16) uint32 {
	if n, ok := s.hot.hbm.touch(orig); ok {
		return n
	}
	e := hotEntry{orig: orig, count: 1}
	// A probation page (demoted to cHBM, entry in the DRAM queue) that is
	// hit again returns to the HBM queue.
	if p, ok := s.hot.dram.remove(orig); ok {
		e = p
		e.count++
	}
	b.pushHBMQueue(now, setIdx, s, e)
	return e.count
}

// touchDRAMPage updates the hot table for an access to a DRAM-resident,
// uncached page and returns the page's hotness counter.
func (b *Bumblebee) touchDRAMPage(now uint64, setIdx uint64, s *pset, orig int16) uint32 {
	if n, ok := s.hot.dram.touch(orig); ok {
		return n
	}
	popped, didPop := s.hot.dram.push(hotEntry{orig: orig, count: 1})
	if didPop {
		b.handleDRAMPop(now, setIdx, s, popped)
	}
	return 1
}

// pushHBMQueue inserts an entry into the hot table queue for HBM pages,
// processing the popped-out LRU entry per HMF rules (1) and (2). It
// returns the completion time of any movement the pop triggered.
func (b *Bumblebee) pushHBMQueue(now uint64, setIdx uint64, s *pset, e hotEntry) uint64 {
	popped, didPop := s.hot.hbm.push(e)
	if didPop {
		return b.processHBMPop(now, setIdx, s, popped)
	}
	return now
}

// handleDRAMPop processes an entry popped out of the off-chip DRAM
// queue: if it is a probation cHBM page, its deferred eviction happens
// now (dirty blocks written back, frame freed). It returns the eviction's
// completion time.
func (b *Bumblebee) handleDRAMPop(now uint64, setIdx uint64, s *pset, e hotEntry) uint64 {
	if w := s.findCachedWay(e.orig); w >= 0 {
		return b.evictCachedWay(now, setIdx, s, w)
	}
	return now
}
