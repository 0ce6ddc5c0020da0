package hybrid2

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/hmm"
)

var _ hmm.Inspector = (*System)(nil)

// pomPeek resolves a page through the POM remapping table WITHOUT the
// first-touch allocation pomLookup performs; slot is -1 when the page has
// never been touched. Inspection must not perturb the simulated state.
func (s *System) pomPeek(p uint64) (setIdx uint64, slot int32) {
	setIdx = s.geom.SetOf(p)
	return setIdx, s.pom[setIdx].newPLE[s.geom.SlotOf(p)]
}

// InspectGranularity implements hmm.Inspector.
func (s *System) InspectGranularity() uint64 { return pageBytes }

// InspectCacheFrames returns the number of block-cache frames. They sit
// outside the POM geometry, so the lockstep checker (internal/check)
// bounds cache copies by this count and page homes by the geometry.
func (s *System) InspectCacheFrames() uint64 { return uint64(len(s.cacheSets)) * cacheWays }

// InspectAddr implements hmm.Inspector. HBM frame identities reuse the
// over-fetch tracker's keyspace (cache region first, then POM region) so
// the two statically partitioned regions cannot collide.
func (s *System) InspectAddr(a addr.Addr) hmm.PageInfo {
	p := s.clampPage(s.geom.PageOf(a))
	info := hmm.PageInfo{Page: p}
	setIdx, slot := s.pomPeek(p)
	if slot < 0 {
		return info
	}
	info.Allocated = true
	if s.geom.IsHBMSlot(uint64(slot)) {
		info.Home = hmm.TierHBM
		info.HomeFrame = s.ftKeyPOM(s.geom.HBMFrameOfSlot(setIdx, uint64(slot)))
		return info
	}
	info.Home = hmm.TierDRAM
	info.HomeFrame = s.geom.DRAMFrameOfSlot(setIdx, uint64(slot))
	info.Aliased = s.pom[setIdx].occupant[slot] != int32(s.geom.SlotOf(p))
	cset := p % uint64(len(s.cacheSets))
	if wi := s.cacheLookup(cset, p); wi >= 0 {
		info.HasCache = true
		info.CacheFrame = s.ftKeyCache(cset, wi)
	}
	return info
}

// LocateLine implements hmm.Inspector: POM-resident pages serve from HBM;
// DRAM-homed pages serve a line from HBM only when its 256 B block is
// present in the block cache.
func (s *System) LocateLine(a addr.Addr) hmm.Tier {
	p := s.clampPage(s.geom.PageOf(a))
	_, slot := s.pomPeek(p)
	if slot < 0 {
		return hmm.TierNone
	}
	if s.geom.IsHBMSlot(uint64(slot)) {
		return hmm.TierHBM
	}
	blk := s.geom.PageOffset(a) / blockBytes
	cset := p % uint64(len(s.cacheSets))
	if wi := s.cacheLookup(cset, p); wi >= 0 && s.cacheSets[cset][wi].present&(1<<blk) != 0 {
		return hmm.TierHBM
	}
	return hmm.TierDRAM
}

// CheckInvariants implements hmm.Inspector. The POM table is checked in
// the occupant→newPLE direction only: an aliased allocation (set full)
// parks a page on a victim's slot without an occupant claim, and a later
// promotion of that page legitimately clears the victim's occupancy — the
// documented degraded mode, same as Bumblebee's allocation overflow.
func (s *System) CheckInvariants() error {
	m := int32(s.geom.DRAMPagesPerSet())
	n := int32(s.geom.HBMPagesPerSet())
	for si := range s.pom {
		ps := &s.pom[si]
		seen := make(map[int32]bool)
		for slot, o := range ps.occupant {
			if o < 0 {
				continue
			}
			if ps.newPLE[o] != int32(slot) {
				return fmt.Errorf("hybrid2: set %d: occupant[%d]=%d but newPLE[%d]=%d",
					si, slot, o, o, ps.newPLE[o])
			}
			if seen[o] {
				return fmt.Errorf("hybrid2: set %d: page %d occupies two slots", si, o)
			}
			seen[o] = true
		}
		for o, slot := range ps.newPLE {
			if slot >= m+n {
				return fmt.Errorf("hybrid2: set %d: newPLE[%d]=%d beyond set", si, o, slot)
			}
		}
	}
	for cset := range s.cacheSets {
		seen := make(map[uint64]bool, cacheWays)
		for wi := range s.cacheSets[cset] {
			w := &s.cacheSets[cset][wi]
			if !w.valid {
				continue
			}
			if w.tag%uint64(len(s.cacheSets)) != uint64(cset) {
				return fmt.Errorf("hybrid2: cache set %d way %d holds page %d which maps to set %d",
					cset, wi, w.tag, w.tag%uint64(len(s.cacheSets)))
			}
			if seen[w.tag] {
				return fmt.Errorf("hybrid2: page %d cached twice in set %d", w.tag, cset)
			}
			seen[w.tag] = true
			if w.dirty&^w.present != 0 {
				return fmt.Errorf("hybrid2: cache set %d way %d has dirty blocks never filled", cset, wi)
			}
			// A cached page must be a DRAM-homed POM page: promote
			// invalidates the cache copy when a page moves to POM.
			_, slot := s.pomPeek(w.tag)
			if slot < 0 || s.geom.IsHBMSlot(uint64(slot)) {
				return fmt.Errorf("hybrid2: cached page %d has non-DRAM POM slot %d", w.tag, slot)
			}
		}
	}
	c := s.Counters()
	if c.ServedHBM+c.ServedDRAM != c.Requests {
		return fmt.Errorf("hybrid2: served %d HBM + %d DRAM != %d requests",
			c.ServedHBM, c.ServedDRAM, c.Requests)
	}
	return nil
}
