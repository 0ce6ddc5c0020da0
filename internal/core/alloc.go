package core

// Page allocation (Section III-D): on a PRT miss the page can be remapped
// to any free page space in its set. The hotness-based policy allocates
// in HBM when recently allocated neighbours are still hot there —
// "adjacent allocation requests tend to have similar memory access
// patterns" — and in off-chip DRAM otherwise. The Alloc-D and Alloc-H
// ablations pin the preference.
// allocate assigns a frame to orig. It returns the cycle at which the
// allocation is usable: normally `now`, but when a cHBM page must be
// evicted synchronously to make room, the eviction sits on the critical
// path — the latency the HMF(5) batched flush exists to remove.
func (b *Bumblebee) allocate(now uint64, setIdx uint64, s *pset, orig int16) uint64 {
	var preferHBM bool
	switch {
	case b.opt.AllocAllDRAM:
		preferHBM = false
	case b.opt.AllocAllHBM:
		preferHBM = true
	default:
		preferHBM = s.recentAllocHot()
	}

	slot := int16(-1)
	lo, hi := b.pomRegion()
	if preferHBM {
		if w := s.freeHBMWay(lo, hi); w >= 0 {
			slot = int16(b.m + w)
		}
	}
	if slot < 0 {
		slot = s.freeDRAMSlot(b.m)
	}
	if slot < 0 {
		// Reclaim a shadow copy: the OS's need for the slot outweighs a
		// cheap future demotion.
		slot = s.reclaimShadow(b.m)
	}
	if slot < 0 {
		// DRAM exhausted: the OS must use HBM page space.
		if w := s.freeHBMWay(lo, hi); w >= 0 {
			slot = int16(b.m + w)
		}
	}
	ready := now
	if slot < 0 {
		// OS memory takes priority over caching: evict a cHBM page to
		// free its frame. The requester waits for the eviction.
		for w := lo; w < hi; w++ {
			if s.bles[w].mode == bleCached {
				ready = b.dropCachedWay(now, setIdx, s, w)
				slot = int16(b.m + w)
				break
			}
		}
	}
	if slot < 0 {
		// The whole set is occupied — the OS footprint exceeds physical
		// memory. Alias onto the page's original DRAM-range position;
		// collisions are tolerated and counted.
		b.AllocOverflow++
		slot = orig % int16(b.m)
		s.newPLE[orig] = slot
		s.aliased[orig] = true
		s.noteAlloc(orig)
		return ready
	}

	s.newPLE[orig] = slot
	s.occupant[slot] = orig
	if b.geom.IsHBMSlot(uint64(slot)) {
		w := wayOfSlot(slot, b.m)
		e := &s.bles[w]
		e.mode = bleMHBM
		e.orig = orig
		e.valid.reset()
		e.dirty.reset()
		b.recount(s, w)
		b.pushHBMQueue(0, setIdx, s, hotEntry{orig: orig, count: 1})
	}
	s.noteAlloc(orig)
	return ready
}
