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
	valid   bool
	lruTick uint64
	present uint8 // per-256B-block bits
	dirty   uint8
}

// pomSet is one remapping set of the POM region: newPLE/occupant pairs
// exactly like a PRT restricted to this design's 2 KB pages.
type pomSet struct {
	newPLE   []int32
	occupant []int32
}

// System is the Hybrid2 design.
type System struct {
	dev  *hmm.Devices
	cnt  hmm.Counters
	geom *addr.Geometry // 2 KB pages over DRAM + POM region

	cacheBytes uint64
	cacheSets  [][]cacheWay
	tick       uint64

	pom []pomSet

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
	nCacheSets := cacheBytes / pageBytes / cacheWays
	s.cacheSets = make([][]cacheWay, nCacheSets)
	for i := range s.cacheSets {
		s.cacheSets[i] = make([]cacheWay, cacheWays)
	}
	s.pom = make([]pomSet, geom.Sets())
	m, n := int(geom.DRAMPagesPerSet()), int(geom.HBMPagesPerSet())
	for i := range s.pom {
		s.pom[i] = pomSet{newPLE: make([]int32, m+n), occupant: make([]int32, m+n)}
		for j := range s.pom[i].newPLE {
			s.pom[i].newPLE[j] = -1
			s.pom[i].occupant[j] = -1
		}
	}
	s.meta = hmm.NewMeta(sys, dev, true)
	s.mcache, err = hmm.NewMetaCache(s.meta, 64*1024) // ~512 KB SRAM
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
func (s *System) ftKeyPOM(f uint64) uint64             { return uint64(len(s.cacheSets))*cacheWays + f }

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
func (s *System) pomLookup(p uint64) (setIdx uint64, slot int32) {
	setIdx = s.geom.SetOf(p)
	ps := &s.pom[setIdx]
	orig := int32(s.geom.SlotOf(p))
	if ps.newPLE[orig] == -1 {
		// First touch: allocate at the original position if free, else
		// any free slot, else alias.
		target := orig
		if ps.occupant[target] != -1 {
			target = -1
			for i := range ps.occupant {
				if ps.occupant[i] == -1 {
					target = int32(i)
					break
				}
			}
		}
		if target == -1 {
			ps.newPLE[orig] = orig % int32(s.geom.DRAMPagesPerSet())
			return setIdx, ps.newPLE[orig]
		}
		ps.newPLE[orig] = target
		ps.occupant[target] = orig
	}
	return setIdx, ps.newPLE[orig]
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
	cset := p % uint64(len(s.cacheSets))
	wi := s.cacheLookup(cset, p)
	if wi >= 0 && s.cacheSets[cset][wi].present&(1<<blk) != 0 {
		w := &s.cacheSets[cset][wi]
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
	for i := range s.cacheSets[cset] {
		if s.cacheSets[cset][i].valid && s.cacheSets[cset][i].tag == p {
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
		s.cacheSets[cset][wi] = cacheWay{tag: p, valid: true, lruTick: s.tick}
	}
	w := &s.cacheSets[cset][wi]
	rd := s.dev.AccessDRAM(now, dframe, blk*blockBytes, blockBytes, false)
	s.dev.HBMAccess(rd, s.cacheFrameAddr(cset, wi, blk), blockBytes, true)
	w.present |= 1 << blk
	s.ft.OnFetch(s.ftKeyCache(cset, wi), blk*blockBytes, blockBytes)
	s.cnt.BlockFills++
}

func (s *System) cacheVictim(cset uint64) int {
	v, min := 0, uint64(0)
	for i := range s.cacheSets[cset] {
		w := &s.cacheSets[cset][i]
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
	w := &s.cacheSets[cset][wi]
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
func (s *System) promote(now uint64, p uint64, setIdx uint64, slot int32) {
	ps := &s.pom[setIdx]
	m := int32(s.geom.DRAMPagesPerSet())
	n := int32(s.geom.HBMPagesPerSet())
	// Find a free POM slot.
	target := int32(-1)
	for i := m; i < m+n; i++ {
		if ps.occupant[i] == -1 {
			target = i
			break
		}
	}
	if target == -1 {
		// Evict a pseudo-random victim POM page back to its original
		// DRAM slot (which must be free: it vacated it when promoted).
		victimSlot := m + int32(p%uint64(n))
		victimOrig := ps.occupant[victimSlot]
		if victimOrig < 0 {
			return
		}
		victimHome := int32(-1)
		for i := int32(0); i < m; i++ {
			if ps.occupant[i] == -1 {
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
		ps.newPLE[victimOrig] = victimHome
		ps.occupant[victimHome] = victimOrig
		ps.occupant[victimSlot] = -1
		s.ft.OnEvict(s.ftKeyPOM(vf))
		s.cnt.Evictions++
		s.dev.Tel.Event(now, telemetry.EvEviction, setIdx, uint64(uint32(victimOrig)), 1)
		target = victimSlot
	}

	orig := int32(s.geom.SlotOf(p))
	dframe := s.geom.DRAMFrameOfSlot(setIdx, uint64(slot))
	f := s.geom.HBMFrameOfSlot(setIdx, uint64(target))

	// Move the page: cached blocks travel HBM->HBM, the rest DRAM->HBM.
	cset := p % uint64(len(s.cacheSets))
	wi := s.cacheLookup(cset, p)
	var present uint8
	if wi >= 0 {
		present = s.cacheSets[cset][wi].present
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
		w := &s.cacheSets[cset][wi]
		w.valid = false
		w.present, w.dirty = 0, 0
		s.ft.OnEvict(s.ftKeyCache(cset, wi))
	}
	ps.newPLE[orig] = target
	ps.occupant[target] = orig
	ps.occupant[slot] = -1
	s.ft.OnFetch(s.ftKeyPOM(f), 0, pageBytes)
	s.cnt.PageMigrations++
	s.cnt.ModeSwitches++
	s.dev.Tel.Event(now, telemetry.EvMigration, setIdx, uint64(uint32(orig)), f)
	s.dev.Tel.Event(now, telemetry.EvModeSwitch, setIdx, uint64(uint32(orig)), 1)
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
	cset := p % uint64(len(s.cacheSets))
	if wi := s.cacheLookup(cset, p); wi >= 0 && s.cacheSets[cset][wi].present&(1<<blk) != 0 {
		s.cacheSets[cset][wi].dirty |= 1 << blk
		s.dev.HBMAccess(now, s.cacheFrameAddr(cset, wi, blk), 64, true)
		return
	}
	s.dev.AccessDRAM(now, s.geom.DRAMFrameOfSlot(setIdx, uint64(slot)), off64, 64, true)
}
