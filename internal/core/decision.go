package core

import "repro/internal/telemetry"

// Data movement decisions (Section III-E): what to do on each memory
// access based on spatial locality (SL = Na - Nn - Nc), temporal locality
// (hot-table counters vs. threshold T) and memory footprint (Rh, OS
// footprint spill), plus the high-memory-footprint machinery: eviction on
// hot-queue pop, the mHBM→cHBM buffering demotion, zombie eviction, the
// full-set swap mode, and the batched cHBM flush.

// cacheRegion returns the way range [lo, hi) usable for cHBM pages and
// pomRegion the range usable as mHBM pages. In adaptive mode (the real
// Bumblebee) both span all ways — the multiplexed space; with a fixed
// ratio the ways are statically partitioned like KNL/Hybrid2.
func (b *Bumblebee) cacheRegion() (int, int) {
	if b.cacheWays >= 0 {
		return 0, b.cacheWays
	}
	return 0, b.n
}

func (b *Bumblebee) pomRegion() (int, int) {
	if b.cacheWays >= 0 {
		return b.cacheWays, b.n
	}
	return 0, b.n
}

// moveDecision applies rule (1): an access to an off-chip DRAM page that
// is not cached.
func (b *Bumblebee) moveDecision(now uint64, setIdx uint64, s *pset, orig, actual int16, blk uint64, hotness uint32) {
	nc, na, nn := s.localityCounts()
	sl := na - nn - nc

	wantMigrate := sl > 0
	if b.cacheWays == 0 {
		wantMigrate = true // M-Only: POM is the only option
	}
	if b.cacheWays == b.n {
		wantMigrate = false // C-Only: caching is the only option
	}
	if s.cHBMOff {
		// Flushed set: HBM frames are reserved for OS-visible memory.
		// Strong-spatial pages may still migrate in, but weak-spatial
		// data stays in off-chip DRAM rather than being cached.
		if sl <= 0 && b.cacheWays != 0 {
			return
		}
		wantMigrate = true
	}

	if s.fullHBM() && hotness <= s.hot.hbm.minCount() {
		// Weak temporal locality under pressure (hotness at or below the
		// threshold T): keep low-frequency data out of HBM entirely.
		return
	}
	// Movement is asynchronous and bandwidth-bounded: when the movement
	// engine's budget is exhausted, the opportunity is skipped and a later
	// access to the page retries.
	if wantMigrate {
		if !b.mover.TryStart(now, b.geom.PageSize) {
			return
		}
		b.migrateToMHBM(now, setIdx, s, orig, actual, blk, hotness)
	} else {
		lo, hi := b.cacheRegion()
		est := b.geom.BlockSize
		if s.freeHBMWay(lo, hi) < 0 {
			est += b.geom.PageSize // an eviction chain may have to run first
		}
		if !b.mover.TryStart(now, est) {
			return
		}
		b.cacheNewPage(now, setIdx, s, orig, actual, blk)
	}
}

// cacheBlock applies rule (2): the page is cached in cHBM but the
// requested block is not; fetch it, and switch the page to mHBM once most
// blocks are present.
func (b *Bumblebee) cacheBlock(now uint64, setIdx uint64, s *pset, w int, orig, actual int16, blk uint64) {
	e := &s.bles[w]
	frame := b.geom.HBMFrameOfSlot(setIdx, uint64(b.m+w))
	dframe := b.geom.DRAMFrameOfSlot(setIdx, uint64(actual))
	boff := blk * b.geom.BlockSize
	b.dev.CopyDRAMToHBM(now, dframe, boff, frame, boff, b.geom.BlockSize)
	b.ft.OnFetch(frame, boff, b.geom.BlockSize)
	b.ft.OnUse(frame, b.off64addrless(blk), 64)
	e.valid.set(blk)
	b.cnt.BlockFills++

	if b.cacheWays < 0 && e.valid.popcount() > b.halfBlocks && !s.cHBMOff {
		missing := uint64(b.blocksPerPage-e.valid.popcount()) * b.geom.BlockSize
		if b.mover.TryStart(now, missing) {
			b.switchToMHBM(now, setIdx, s, w, orig, actual)
		}
	}
}

// off64addrless returns the 64 B-aligned offset of block blk's first word
// (the demand word's exact offset is unknown here; the first word of the
// block is representative for use-tracking).
func (b *Bumblebee) off64addrless(blk uint64) uint64 { return blk * b.geom.BlockSize }

// switchToMHBM converts a cHBM page into an mHBM page (the page's home
// moves from its DRAM slot to the HBM frame). Only blocks not yet cached
// are fetched — the multiplexed-space benefit. With No-Multi the whole
// page is additionally relocated inside HBM, modelling separate cHBM and
// mHBM spaces.
func (b *Bumblebee) switchToMHBM(now uint64, setIdx uint64, s *pset, w int, orig, actual int16) uint64 {
	e := &s.bles[w]
	frame := b.geom.HBMFrameOfSlot(setIdx, uint64(b.m+w))
	dframe := b.geom.DRAMFrameOfSlot(setIdx, uint64(actual))
	done := now
	for blk := uint64(0); blk < uint64(b.blocksPerPage); blk++ {
		if !e.valid.get(blk) {
			boff := blk * b.geom.BlockSize
			if d := b.dev.CopyDRAMToHBM(now, dframe, boff, frame, boff, b.geom.BlockSize); d > done {
				done = d
			}
			b.ft.OnFetch(frame, boff, b.geom.BlockSize)
		}
	}
	if b.opt.NoMultiplex {
		// Separate spaces: the page must physically move from the cache
		// region to the POM region.
		if d := b.dev.CopyHBMToHBM(now, frame, 0, frame, 0, b.geom.PageSize); d > done {
			done = d
		}
	}
	e.mode = bleMHBM
	// The page's home moves to HBM. Its DRAM slot is kept as a stale
	// shadow copy (reclaimed under allocation pressure): blocks dirtied
	// while cached stay dirty against it, newly fetched blocks are clean,
	// so a later demotion-eviction writes only what actually changed.
	e.shadow = actual
	s.newPLE[orig] = int16(b.m + w)
	s.occupant[b.m+w] = orig
	b.recount(s, w)
	b.cnt.ModeSwitches++
	b.dev.Tel.Event(now, telemetry.EvModeSwitch, setIdx, uint64(uint16(orig)), 1)
	return done
}

// cacheNewPage starts caching a previously uncached DRAM page: allocate a
// cHBM frame and fetch only the requested block.
func (b *Bumblebee) cacheNewPage(now uint64, setIdx uint64, s *pset, orig, actual int16, blk uint64) uint64 {
	lo, hi := b.cacheRegion()
	done := now
	w := s.freeHBMWay(lo, hi)
	if w < 0 {
		done = b.evictOne(now, setIdx, s, lo, hi)
		w = s.freeHBMWay(lo, hi)
	}
	if w < 0 {
		return done // nothing evictable; skip caching
	}
	e := &s.bles[w]
	e.mode = bleCached
	e.orig = orig
	e.valid.reset()
	e.dirty.reset()
	frame := b.geom.HBMFrameOfSlot(setIdx, uint64(b.m+w))
	dframe := b.geom.DRAMFrameOfSlot(setIdx, uint64(actual))
	boff := blk * b.geom.BlockSize
	if d := b.dev.CopyDRAMToHBM(now, dframe, boff, frame, boff, b.geom.BlockSize); d > done {
		done = d
	}
	b.ft.OnFetch(frame, boff, b.geom.BlockSize)
	e.valid.set(blk)
	b.recount(s, w)
	b.cnt.BlockFills++
	// The page is now HBM-resident: its hot entry moves to the HBM queue.
	he, ok := s.hot.dram.remove(orig)
	if !ok {
		he = hotEntry{orig: orig, count: 1}
	}
	if d := b.pushHBMQueue(now, setIdx, s, he); d > done {
		done = d
	}
	return done
}

// migrateToMHBM applies the strong-spatial-locality arm of rule (1): the
// whole page moves from off-chip DRAM into an mHBM frame. When the set is
// completely occupied the HMF(4) swap mode runs instead.
func (b *Bumblebee) migrateToMHBM(now uint64, setIdx uint64, s *pset, orig, actual int16, blk uint64, hotness uint32) uint64 {
	lo, hi := b.pomRegion()
	done := now
	w := s.freeHBMWay(lo, hi)
	if w < 0 {
		done = b.evictOne(now, setIdx, s, lo, hi)
		w = s.freeHBMWay(lo, hi)
	}
	if w < 0 {
		// HMF(4): every frame is OS-occupied mHBM; swap with the coldest
		// HBM page if this page is hotter.
		if cold, ok := s.hot.hbm.lru(); ok && hotness > cold.count {
			b.mover.Charge(b.geom.PageSize) // a swap moves a second page
			if d := b.swapWithColdest(now, setIdx, s, orig, actual, blk, cold); d > done {
				done = d
			}
		}
		return done
	}
	frame := b.geom.HBMFrameOfSlot(setIdx, uint64(b.m+w))
	dframe := b.geom.DRAMFrameOfSlot(setIdx, uint64(actual))
	if d := b.dev.CopyDRAMToHBM(now, dframe, 0, frame, 0, b.geom.PageSize); d > done {
		done = d
	}
	b.ft.OnFetch(frame, 0, b.geom.PageSize)
	e := &s.bles[w]
	e.mode = bleMHBM
	e.orig = orig
	e.valid.reset()
	e.valid.set(blk)
	e.dirty.reset()
	// The old DRAM home becomes a clean shadow copy.
	e.shadow = actual
	s.newPLE[orig] = int16(b.m + w)
	s.occupant[b.m+w] = orig
	b.recount(s, w)
	b.cnt.PageMigrations++
	b.dev.Tel.Event(now, telemetry.EvMigration, setIdx, uint64(uint16(orig)), frame)
	he, ok := s.hot.dram.remove(orig)
	if !ok {
		he = hotEntry{orig: orig, count: hotness}
	}
	if d := b.pushHBMQueue(now, setIdx, s, he); d > done {
		done = d
	}
	return done
}

// swapWithColdest exchanges a hot DRAM page with the coldest mHBM page
// (HMF rule 4). Both pages cross both memory buses.
func (b *Bumblebee) swapWithColdest(now uint64, setIdx uint64, s *pset, orig, actual int16, blk uint64, cold hotEntry) uint64 {
	coldSlot := s.newPLE[cold.orig]
	if coldSlot < int16(b.m) || s.occupant[coldSlot] != cold.orig {
		return now // stale entry; nothing safe to do
	}
	w := wayOfSlot(coldSlot, b.m)
	if s.bles[w].mode != bleMHBM {
		return now // demoted in the meantime
	}
	hframe := b.geom.HBMFrameOfSlot(setIdx, uint64(coldSlot))
	dframe := b.geom.DRAMFrameOfSlot(setIdx, uint64(actual))
	done := b.dev.SwapPages(now, dframe, hframe)
	// Remap: hot page takes the HBM slot, cold page takes the DRAM slot.
	s.newPLE[orig] = coldSlot
	s.occupant[coldSlot] = orig
	s.newPLE[cold.orig] = actual
	s.occupant[actual] = cold.orig
	e := &s.bles[w]
	if e.shadow >= 0 {
		// The cold page's stale shadow is obsolete: its data now lives
		// in the hot page's old slot.
		s.occupant[e.shadow] = -1
		e.shadow = -1
	}
	e.mode = bleMHBM
	e.orig = orig
	e.valid.reset()
	e.valid.set(blk)
	e.dirty.reset()
	b.recount(s, w)
	b.cnt.PageSwaps++
	b.dev.Tel.Event(now, telemetry.EvRemap, setIdx, uint64(uint16(orig)), uint64(uint16(cold.orig)))
	b.ft.OnEvict(hframe)
	b.ft.OnFetch(hframe, 0, b.geom.PageSize)
	// Hot-table bookkeeping: the cold page leaves HBM, the hot one enters.
	if he, ok := s.hot.hbm.remove(cold.orig); ok {
		s.hot.dram.push(hotEntry{orig: cold.orig, count: he.count / 2})
	}
	he, ok := s.hot.dram.remove(orig)
	if !ok {
		he = hotEntry{orig: orig, count: 1}
	}
	if d := b.pushHBMQueue(now, setIdx, s, he); d > done {
		done = d
	}
	return done
}

// evictOne frees one HBM frame in the way range [lo, hi) by popping the
// hot table queue for HBM pages: popped cHBM pages are evicted (HMF rule
// 1); popped mHBM pages get one more chance as cHBM pages (HMF rule 2 —
// the buffering demotion) when a DRAM slot is available.
func (b *Bumblebee) evictOne(now uint64, setIdx uint64, s *pset, lo, hi int) uint64 {
	done := now
	for i := 0; i <= b.n; i++ {
		if s.freeHBMWay(lo, hi) >= 0 {
			return done
		}
		e, ok := s.hot.hbm.popLRU()
		if !ok {
			// Queue empty but frames busy: probation cHBM pages hold
			// them; evict one directly.
			for w := lo; w < hi; w++ {
				if s.bles[w].mode == bleCached {
					if d := b.dropCachedWay(now, setIdx, s, w); d > done {
						done = d
					}
					return done
				}
			}
			return done
		}
		if d := b.processHBMPop(now, setIdx, s, e); d > done {
			done = d
		}
	}
	return done
}

// processHBMPop handles an entry popped out of the HBM hot queue.
func (b *Bumblebee) processHBMPop(now uint64, setIdx uint64, s *pset, e hotEntry) uint64 {
	if w := s.findCachedWay(e.orig); w >= 0 {
		// HMF rule (1): evict the cHBM page to off-chip DRAM.
		done := b.evictCachedWay(now, setIdx, s, w)
		popped, didPop := s.hot.dram.push(e)
		if didPop {
			if d := b.handleDRAMPop(now, setIdx, s, popped); d > done {
				done = d
			}
		}
		return done
	}
	slot := s.newPLE[e.orig]
	if slot >= int16(b.m) && s.occupant[slot] == e.orig && s.bles[wayOfSlot(slot, b.m)].mode == bleMHBM {
		if b.cacheWays >= 0 || b.opt.NoHMF {
			// Statically partitioned variants and the No-HMF ablation
			// have no buffering demotion: the mHBM page is evicted
			// straight to off-chip DRAM at full (2x) bandwidth cost.
			return b.evictMHBMPage(now, setIdx, s, e)
		}
		// HMF rule (2): demote the mHBM page to cHBM instead of paying
		// the 2x eviction bandwidth now.
		return b.demoteToCache(now, setIdx, s, e)
	}
	// Stale entry; drop it.
	return now
}

// evictMHBMPage writes an mHBM page back to a free off-chip DRAM slot and
// frees its frame (the full-cost eviction the buffering demotion defers).
func (b *Bumblebee) evictMHBMPage(now uint64, setIdx uint64, s *pset, e hotEntry) uint64 {
	hbmSlot := s.newPLE[e.orig]
	w := wayOfSlot(hbmSlot, b.m)
	be := &s.bles[w]
	hframe := b.geom.HBMFrameOfSlot(setIdx, uint64(hbmSlot))
	var done uint64
	d := be.shadow
	if d >= 0 {
		// A shadow copy exists: write back only the dirty blocks.
		dframe := b.geom.DRAMFrameOfSlot(setIdx, uint64(d))
		done = now
		for blk := uint64(0); blk < uint64(b.blocksPerPage); blk++ {
			if be.dirty.get(blk) {
				boff := blk * b.geom.BlockSize
				if dd := b.dev.CopyHBMToDRAM(now, hframe, boff, dframe, boff, b.geom.BlockSize); dd > done {
					done = dd
				}
			}
		}
	} else {
		d = s.freeDRAMSlot(b.m)
		if d < 0 {
			d = s.reclaimShadow(b.m)
		}
		if d < 0 {
			s.hot.hbm.push(e) // nowhere to evict to; restore
			return now
		}
		dframe := b.geom.DRAMFrameOfSlot(setIdx, uint64(d))
		done = b.dev.CopyHBMToDRAM(now, hframe, 0, dframe, 0, b.geom.PageSize)
		s.occupant[d] = e.orig
	}
	s.newPLE[e.orig] = d
	s.occupant[hbmSlot] = -1
	be.mode = bleFree
	be.orig = -1
	be.valid.reset()
	be.dirty.reset()
	be.shadow = -1
	b.recount(s, w)
	b.ft.OnEvict(hframe)
	b.cnt.Evictions++
	b.dev.Tel.Event(now, telemetry.EvEviction, setIdx, uint64(uint16(e.orig)), 0)
	popped, didPop := s.hot.dram.push(e)
	if didPop {
		if dd := b.handleDRAMPop(now, setIdx, s, popped); dd > done {
			done = dd
		}
	}
	return done
}

// demoteToCache switches an mHBM page to cHBM mode: the page gets a DRAM
// home slot, every block is marked valid and dirty, and no data moves
// (multiplexed space). With No-Multi the page is written to DRAM
// immediately and the frame keeps only a clean cached copy.
func (b *Bumblebee) demoteToCache(now uint64, setIdx uint64, s *pset, e hotEntry) uint64 {
	hbmSlot := s.newPLE[e.orig]
	w := wayOfSlot(hbmSlot, b.m)
	be := &s.bles[w]
	d := be.shadow
	if d < 0 {
		d = s.freeDRAMSlot(b.m)
		if d < 0 {
			// Another page's shadow slot can be reclaimed: the OS-visible
			// page being demoted needs the frame more.
			d = s.reclaimShadow(b.m)
		}
		if d < 0 {
			// No DRAM slot to re-home the page: it must stay mHBM. Put
			// it back at the MRU end so other pages age out first.
			s.hot.hbm.push(e)
			return now
		}
		// The page's data exists only in HBM: against the fresh DRAM
		// home, every block is dirty.
		be.dirty.setAll(b.blocksPerPage)
		s.occupant[d] = e.orig
	}
	be.mode = bleCached
	be.orig = e.orig
	be.valid.setAll(b.blocksPerPage)
	be.shadow = -1
	s.newPLE[e.orig] = d
	s.occupant[hbmSlot] = -1
	b.recount(s, w)
	b.cnt.ModeSwitches++
	b.dev.Tel.Event(now, telemetry.EvModeSwitch, setIdx, uint64(uint16(e.orig)), 0)
	done := now
	if b.opt.NoMultiplex {
		// Separate spaces force the eviction write now.
		hframe := b.geom.HBMFrameOfSlot(setIdx, uint64(hbmSlot))
		dframe := b.geom.DRAMFrameOfSlot(setIdx, uint64(d))
		done = b.dev.CopyHBMToDRAM(now, hframe, 0, dframe, 0, b.geom.PageSize)
		be.dirty.reset()
	}
	popped, didPop := s.hot.dram.push(e)
	if didPop {
		if dd := b.handleDRAMPop(now, setIdx, s, popped); dd > done {
			done = dd
		}
	}
	return done
}

// evictCachedWay writes a cHBM page's dirty blocks back to its DRAM home
// and frees the frame.
func (b *Bumblebee) evictCachedWay(now uint64, setIdx uint64, s *pset, w int) uint64 {
	e := &s.bles[w]
	orig := e.orig
	actual := s.newPLE[orig]
	frame := b.geom.HBMFrameOfSlot(setIdx, uint64(b.m+w))
	done := now
	if actual >= 0 && !b.geom.IsHBMSlot(uint64(actual)) {
		dframe := b.geom.DRAMFrameOfSlot(setIdx, uint64(actual))
		for blk := uint64(0); blk < uint64(b.blocksPerPage); blk++ {
			if e.dirty.get(blk) {
				boff := blk * b.geom.BlockSize
				if d := b.dev.CopyHBMToDRAM(now, frame, boff, dframe, boff, b.geom.BlockSize); d > done {
					done = d
				}
			}
		}
	}
	e.mode = bleFree
	e.orig = -1
	e.valid.reset()
	e.dirty.reset()
	b.recount(s, w)
	b.ft.OnEvict(frame)
	b.cnt.Evictions++
	b.dev.Tel.Event(now, telemetry.EvEviction, setIdx, uint64(uint16(orig)), 1)
	return done
}

// dropCachedWay evicts a cHBM page outside the hot-queue flow: the page
// leaves both hot queues, then evictCachedWay writes its dirty blocks
// back and frees the frame.
func (b *Bumblebee) dropCachedWay(now uint64, setIdx uint64, s *pset, w int) uint64 {
	orig := s.bles[w].orig
	s.hot.hbm.remove(orig)
	s.hot.dram.remove(orig)
	return b.evictCachedWay(now, setIdx, s, w)
}

// zombieCheck implements HMF rule (3): under full HBM occupancy, a head
// page whose identity and counter have not changed for ZombieWindow set
// accesses is evicted, because nothing else can push it out.
func (b *Bumblebee) zombieCheck(now uint64, setIdx uint64, s *pset) {
	if b.opt.NoHMF {
		return
	}
	if !s.fullHBM() {
		s.zombieStale = 0
		return
	}
	head, ok := s.hot.hbm.lru()
	if !ok {
		s.zombieStale = 0
		return
	}
	if head.orig == s.zombieOrig && head.count == s.zombieCount {
		s.zombieStale++
	} else {
		s.zombieOrig, s.zombieCount, s.zombieStale = head.orig, head.count, 0
	}
	if uint64(s.zombieStale) <= b.opt.ZombieWindow {
		return
	}
	if !b.mover.TryStart(now, b.geom.PageSize) {
		return // movement engine saturated; retry later
	}
	s.zombieStale = 0
	e, _ := s.hot.hbm.popLRU()
	if w := s.findCachedWay(e.orig); w >= 0 {
		b.evictCachedWay(now, setIdx, s, w)
		s.hot.dram.push(e)
		return
	}
	slot := s.newPLE[e.orig]
	if slot >= int16(b.m) && s.occupant[slot] == e.orig {
		b.evictMHBMPage(now, setIdx, s, hotEntry{orig: e.orig, count: e.count / 2})
	}
}

// flushCHBMBatch implements HMF rule (5): when the OS footprint spills
// past off-chip DRAM, cHBM pages across a batch of remapping sets are
// flushed so their frames can serve as OS-visible memory, removing the
// eviction latency from the later allocations' critical path.
func (b *Bumblebee) flushCHBMBatch(now uint64, setIdx uint64) {
	batch := b.sys.MoveBatch
	b.dev.Tel.Event(now, telemetry.EvFlush, setIdx, uint64(batch), 0)
	for k := 0; k < batch; k++ {
		idx := (setIdx + uint64(k)) % uint64(len(b.sets))
		s := b.sets[idx]
		if s.cHBMOff {
			continue
		}
		s.cHBMOff = true
		for w := range s.bles {
			if s.bles[w].mode == bleCached {
				b.dropCachedWay(now, idx, s, w)
			}
		}
	}
}
