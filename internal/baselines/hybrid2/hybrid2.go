// Package hybrid2 implements Hybrid2 (Vasilakis et al., HPCA 2020): a
// statically partitioned hybrid design. A small fixed slice of the
// die-stacked HBM (64 MB of 1 GB — 1/16) is a set-associative DRAM cache
// of 256 B blocks within 2 KB pages; the rest is OS-visible POM managed by
// a set-associative remapping table at 2 KB granularity. The cHBM and POM
// spaces are separate, so promoting a page from the cache to POM moves
// data inside HBM and must first swap a POM victim out to off-chip DRAM —
// the mode-switch overhead Bumblebee's multiplexed space removes. The
// remap/tag metadata is far too large for SRAM, so it lives in HBM behind
// a 512 KB SRAM metadata cache.
package hybrid2

import (
	"fmt"
	"math"

	"repro/internal/addr"
	"repro/internal/config"
	"repro/internal/hmm"
	"repro/internal/telemetry"
)

const (
	pageBytes  = 2 * addr.KiB
	blockBytes = 256
	blocksPer  = int(pageBytes / blockBytes) // 8
	cacheWays  = 4
	pomWays    = 8
	// migrateAt is the access count at which a DRAM page is promoted to
	// POM.
	migrateAt = 8
)

type cacheWay struct {
	tag     uint64 // global page number cached here
	lruTick uint64
	valid   bool
	present uint8 // per-256B-block bits
	dirty   uint8
}

// System is the Hybrid2 design.
type System struct {
	dev  *hmm.Devices
	cnt  hmm.Counters
	geom *addr.Geometry // 2 KB pages over DRAM + POM region

	cacheBytes uint64
	ways       []cacheWay // block-cache ways, [set*cacheWays+way]
	tick       uint64

	// The POM region's remapping table: newPLE/occupant pairs exactly
	// like a PRT restricted to this design's 2 KB pages, m+n slots per
	// set, indexed set*(m+n)+slot.
	slots    uint64
	newPLE   []int16
	occupant []int16

	meta   *hmm.Meta
	mcache *hmm.MetaCache
	ft     *hmm.FetchTracker
	os     *hmm.OSMem
	mover  *hmm.Mover

	heat  map[uint64]uint32 // DRAM page promotion counters
	ticks uint64
}

var _ hmm.MemSystem = (*System)(nil)

// New builds a Hybrid2 system over the devices of sys. The cache region
// is 1/16 of HBM (64 MB at the paper's 1 GB), like the published design.
func New(sys config.System) (*System, error) {
	cacheBytes := sys.HBM.CapacityBytes / 16
	pomBytes := sys.HBM.CapacityBytes - cacheBytes
	geom, err := addr.NewGeometry(pageBytes, blockBytes, sys.DRAM.CapacityBytes, pomBytes, pomWays)
	if err != nil {
		return nil, fmt.Errorf("hybrid2: %w", err)
	}
	if slots := geom.PagesPerSet(); slots > math.MaxInt16 {
		return nil, fmt.Errorf("hybrid2: %d pages per set exceeds PLE range %d", slots, math.MaxInt16)
	}
	dev, err := hmm.NewDevicesWithGeometry(sys, geom)
	if err != nil {
		return nil, err
	}
	s := &System{
		dev:        dev,
		geom:       geom,
		cacheBytes: cacheBytes,
		heat:       make(map[uint64]uint32),
		ft:         hmm.NewFetchTracker(pageBytes),
		os:         hmm.NewOSMem(geom.DRAMBytes+geom.HBMBytes, pageBytes, sys.PageFaultNS, sys.Core.FreqMHz),
	}
	dramBPC := sys.DRAM.PeakBandwidthGBs() * 1e9 / (float64(sys.Core.FreqMHz) * 1e6)
	s.mover = hmm.NewMover(0.5 * dramBPC)
	s.ways = make([]cacheWay, cacheBytes/pageBytes/cacheWays*cacheWays)
	s.slots = geom.PagesPerSet()
	s.newPLE = make([]int16, geom.Sets()*s.slots)
	s.occupant = make([]int16, len(s.newPLE))
	for i := range s.newPLE {
		s.newPLE[i] = -1
		s.occupant[i] = -1
	}
	s.meta = hmm.NewMeta(sys, dev, true)
	// ~512 KB SRAM, keyed by page.
	s.mcache, err = hmm.NewMetaCache(s.meta, 64*1024, geom.DRAMPages()+geom.HBMPages())
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Name implements hmm.MemSystem.
func (s *System) Name() string { return "hybrid2" }

// Devices implements hmm.MemSystem.
func (s *System) Devices() *hmm.Devices { return s.dev }

// Counters implements hmm.MemSystem.
func (s *System) Counters() hmm.Counters {
	c := s.cnt
	c.MetaLookups = s.meta.Lookups
	c.MetaHBM = s.meta.HBMHits
	c.FetchedBytes = s.ft.Fetched
	c.UsedBytes = s.ft.Used
	c.PageFaults = s.os.Faults
	s.dev.AddRAS(&c)
	return c
}

// Device address layout: the cache region occupies HBM bytes
// [0, cacheBytes); POM frame i sits at cacheBytes + i*pageBytes.

// cacheFrameAddr returns the HBM byte address of block blk of way wi in
// cache set set.
func (s *System) cacheFrameAddr(set uint64, wi int, blk uint64) addr.Addr {
	return addr.Addr(set*cacheWays*pageBytes + uint64(wi)*pageBytes + blk*blockBytes)
}

// pomFrameAddr returns the HBM byte address of POM frame f.
func (s *System) pomFrameAddr(f uint64, off uint64) addr.Addr {
	return addr.Addr(s.cacheBytes + f*pageBytes + off)
}

// ftKeyCache and ftKeyPOM keep over-fetch tracking keys distinct between
// the two regions.
func (s *System) ftKeyCache(set uint64, wi int) uint64 { return set*cacheWays + uint64(wi) }
func (s *System) ftKeyPOM(f uint64) uint64             { return uint64(len(s.ways)) + f }

// cacheSets returns the number of block-cache sets.
func (s *System) cacheSets() uint64 { return uint64(len(s.ways)) / cacheWays }

// cacheSet returns the ways of block-cache set cset.
func (s *System) cacheSet(cset uint64) []cacheWay {
	return s.ways[cset*cacheWays : (cset+1)*cacheWays]
}

// pomRow returns the newPLE and occupant entries of remapping set set.
func (s *System) pomRow(set uint64) (newPLE, occupant []int16) {
	lo, hi := set*s.slots, (set+1)*s.slots
	return s.newPLE[lo:hi], s.occupant[lo:hi]
}

func (s *System) decay() {
	s.ticks++
	if s.ticks%(1<<15) != 0 {
		return
	}
	for k, v := range s.heat {
		if v <= 1 {
			delete(s.heat, k)
		} else {
			s.heat[k] = v / 2
		}
	}
}

// pomLookup resolves a page through the POM remapping table, allocating
// it first-touch. It returns the slot holding the page.
func (s *System) pomLookup(p uint64) (setIdx uint64, slot int16) {
	setIdx = s.geom.SetOf(p)
	newPLE, occupant := s.pomRow(setIdx)
	orig := int16(s.geom.SlotOf(p))
	if newPLE[orig] == -1 {
		// First touch: allocate at the original position if free, else
		// any free slot, else alias.
		target := orig
		if occupant[target] != -1 {
			target = -1
			for i := range occupant {
				if occupant[i] == -1 {
					target = int16(i)
					break
				}
			}
		}
		if target == -1 {
			newPLE[orig] = orig % int16(s.geom.DRAMPagesPerSet())
			return setIdx, newPLE[orig]
		}
		newPLE[orig] = target
		occupant[target] = orig
	}
	return setIdx, newPLE[orig]
}

// Access implements hmm.MemSystem.
func (s *System) Access(now uint64, a addr.Addr, write bool) uint64 {
	done, tier := s.access(now, a, write)
	s.dev.Tel.ObserveAccess(tier, now, done)
	return done
}

// access is the uninstrumented access path; it also reports which tier
// served the demand line.
func (s *System) access(now uint64, a addr.Addr, write bool) (uint64, telemetry.Tier) {
	s.cnt.Requests++
	s.decay()
	now = s.os.Admit(now, a)
	p := s.geom.FoldPage(s.geom.PageOf(a))
	off := s.geom.PageOffset(a)
	off64 := off &^ 63
	blk := off / blockBytes

	metaDone := s.mcache.Lookup(now, p)

	setIdx, slot := s.pomLookup(p)
	if s.geom.IsHBMSlot(uint64(slot)) {
		// Page lives in the POM region.
		f := s.geom.HBMFrameOfSlot(setIdx, uint64(slot))
		done := s.dev.HBMAccess(metaDone, s.pomFrameAddr(f, off64), 64, write)
		s.ft.OnUse(s.ftKeyPOM(f), off64, 64)
		s.cnt.ServedHBM++
		return done, telemetry.TierMHBM
	}

	// DRAM-homed page: probe the block cache.
	dframe := s.geom.DRAMFrameOfSlot(setIdx, uint64(slot))
	cset := p % s.cacheSets()
	wi := s.cacheLookup(cset, p)
	if wi >= 0 && s.cacheSet(cset)[wi].present&(1<<blk) != 0 {
		w := &s.cacheSet(cset)[wi]
		s.tick++
		w.lruTick = s.tick
		done := s.dev.HBMAccess(metaDone, s.cacheFrameAddr(cset, wi, blk)+addr.Addr(off64%blockBytes), 64, write)
		if write {
			w.dirty |= 1 << blk
		}
		s.ft.OnUse(s.ftKeyCache(cset, wi), off64, 64)
		s.cnt.ServedHBM++
		return done, telemetry.TierCHBM
	}

	// Serve from DRAM, then fill the block (Hybrid2 caches every
	// requested block) and consider promotion to POM.
	done := s.dev.AccessDRAM(metaDone, dframe, off64, 64, write)
	s.cnt.ServedDRAM++
	s.fillBlock(now, cset, wi, p, dframe, blk)
	s.heat[p]++
	if s.heat[p] >= migrateAt && s.mover.TryStart(now, 2*pageBytes) {
		s.promote(now, p, setIdx, slot)
	}
	return done, telemetry.TierDRAM
}

func (s *System) cacheLookup(cset uint64, p uint64) int {
	ways := s.cacheSet(cset)
	for i := range ways {
		if ways[i].valid && ways[i].tag == p {
			return i
		}
	}
	return -1
}

// fillBlock installs one 256 B block into the cache, allocating a way if
// the page has none yet.
func (s *System) fillBlock(now uint64, cset uint64, wi int, p, dframe, blk uint64) {
	if wi < 0 {
		wi = s.cacheVictim(cset)
		s.evictCacheWay(now, cset, wi)
		s.tick++
		s.cacheSet(cset)[wi] = cacheWay{tag: p, valid: true, lruTick: s.tick}
	}
	w := &s.cacheSet(cset)[wi]
	rd := s.dev.AccessDRAM(now, dframe, blk*blockBytes, blockBytes, false)
	s.dev.HBMAccess(rd, s.cacheFrameAddr(cset, wi, blk), blockBytes, true)
	w.present |= 1 << blk
	s.ft.OnFetch(s.ftKeyCache(cset, wi), blk*blockBytes, blockBytes)
	s.cnt.BlockFills++
}

func (s *System) cacheVictim(cset uint64) int {
	v, min := 0, uint64(0)
	ways := s.cacheSet(cset)
	for i := range ways {
		w := &ways[i]
		if !w.valid {
			return i
		}
		if i == 0 || w.lruTick < min {
			v, min = i, w.lruTick
		}
	}
	return v
}

// evictCacheWay writes dirty cached blocks back to the page's DRAM home.
func (s *System) evictCacheWay(now uint64, cset uint64, wi int) {
	w := &s.cacheSet(cset)[wi]
	if !w.valid {
		return
	}
	setIdx, slot := s.pomLookup(w.tag)
	if !s.geom.IsHBMSlot(uint64(slot)) {
		dframe := s.geom.DRAMFrameOfSlot(setIdx, uint64(slot))
		for blk := uint64(0); blk < uint64(blocksPer); blk++ {
			if w.dirty&(1<<blk) != 0 {
				rd := s.dev.HBMAccess(now, s.cacheFrameAddr(cset, wi, blk), blockBytes, false)
				s.dev.AccessDRAM(rd, dframe, blk*blockBytes, blockBytes, true)
			}
		}
	}
	s.ft.OnEvict(s.ftKeyCache(cset, wi))
	s.cnt.Evictions++
	s.dev.Tel.Event(now, telemetry.EvEviction, cset, w.tag, 0)
	w.valid = false
	w.present, w.dirty = 0, 0
}

// promote migrates a hot DRAM page into the POM region. Because cHBM and
// POM spaces are separate, a full POM set first swaps a victim out to
// off-chip DRAM, and blocks already in the cache are copied inside HBM —
// the data movement Bumblebee's multiplexed space avoids.
func (s *System) promote(now uint64, p uint64, setIdx uint64, slot int16) {
	newPLE, occupant := s.pomRow(setIdx)
	m := int16(s.geom.DRAMPagesPerSet())
	n := int16(s.geom.HBMPagesPerSet())
	// Find a free POM slot.
	target := int16(-1)
	for i := m; i < m+n; i++ {
		if occupant[i] == -1 {
			target = i
			break
		}
	}
	if target == -1 {
		// Evict a pseudo-random victim POM page back to its original
		// DRAM slot (which must be free: it vacated it when promoted).
		victimSlot := m + int16(p%uint64(n))
		victimOrig := occupant[victimSlot]
		if victimOrig < 0 {
			return
		}
		victimHome := int16(-1)
		for i := int16(0); i < m; i++ {
			if occupant[i] == -1 {
				victimHome = i
				break
			}
		}
		if victimHome == -1 {
			return // set completely full; no promotion possible
		}
		vf := s.geom.HBMFrameOfSlot(setIdx, uint64(victimSlot))
		rd := s.dev.HBMAccess(now, s.pomFrameAddr(vf, 0), pageBytes, false)
		s.dev.AccessDRAM(rd, s.geom.DRAMFrameOfSlot(setIdx, uint64(victimHome)), 0, pageBytes, true)
		newPLE[victimOrig] = victimHome
		occupant[victimHome] = victimOrig
		occupant[victimSlot] = -1
		s.ft.OnEvict(s.ftKeyPOM(vf))
		s.cnt.Evictions++
		s.dev.Tel.Event(now, telemetry.EvEviction, setIdx, uint64(victimOrig), 1)
		target = victimSlot
	}

	orig := int16(s.geom.SlotOf(p))
	dframe := s.geom.DRAMFrameOfSlot(setIdx, uint64(slot))
	f := s.geom.HBMFrameOfSlot(setIdx, uint64(target))

	// Move the page: cached blocks travel HBM->HBM, the rest DRAM->HBM.
	cset := p % s.cacheSets()
	wi := s.cacheLookup(cset, p)
	var present uint8
	if wi >= 0 {
		present = s.cacheSet(cset)[wi].present
	}
	for blk := uint64(0); blk < uint64(blocksPer); blk++ {
		if present&(1<<blk) != 0 {
			rd := s.dev.HBMAccess(now, s.cacheFrameAddr(cset, wi, blk), blockBytes, false)
			s.dev.HBMAccess(rd, s.pomFrameAddr(f, blk*blockBytes), blockBytes, true)
		} else {
			rd := s.dev.AccessDRAM(now, dframe, blk*blockBytes, blockBytes, false)
			s.dev.HBMAccess(rd, s.pomFrameAddr(f, blk*blockBytes), blockBytes, true)
		}
	}
	if wi >= 0 {
		// Invalidate the cache copy without writeback: POM is now home.
		w := &s.cacheSet(cset)[wi]
		w.valid = false
		w.present, w.dirty = 0, 0
		s.ft.OnEvict(s.ftKeyCache(cset, wi))
	}
	newPLE[orig] = target
	occupant[target] = orig
	occupant[slot] = -1
	s.ft.OnFetch(s.ftKeyPOM(f), 0, pageBytes)
	s.cnt.PageMigrations++
	s.cnt.ModeSwitches++
	s.dev.Tel.Event(now, telemetry.EvMigration, setIdx, uint64(orig), f)
	s.dev.Tel.Event(now, telemetry.EvModeSwitch, setIdx, uint64(orig), 1)
	delete(s.heat, p)
	s.meta.Update(now, p)
}

// Writeback implements hmm.MemSystem.
func (s *System) Writeback(now uint64, a addr.Addr) {
	s.cnt.Writebacks++
	p := s.geom.FoldPage(s.geom.PageOf(a))
	off := s.geom.PageOffset(a)
	off64 := off &^ 63
	blk := off / blockBytes
	setIdx, slot := s.pomLookup(p)
	if s.geom.IsHBMSlot(uint64(slot)) {
		f := s.geom.HBMFrameOfSlot(setIdx, uint64(slot))
		s.dev.HBMAccess(now, s.pomFrameAddr(f, off64), 64, true)
		return
	}
	cset := p % s.cacheSets()
	if wi := s.cacheLookup(cset, p); wi >= 0 && s.cacheSet(cset)[wi].present&(1<<blk) != 0 {
		s.cacheSet(cset)[wi].dirty |= 1 << blk
		s.dev.HBMAccess(now, s.cacheFrameAddr(cset, wi, blk), 64, true)
		return
	}
	s.dev.AccessDRAM(now, s.geom.DRAMFrameOfSlot(setIdx, uint64(slot)), off64, 64, true)
}
