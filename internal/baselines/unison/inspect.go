package unison

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/hmm"
)

var _ hmm.Inspector = (*Cache)(nil)

// InspectGranularity implements hmm.Inspector.
func (c *Cache) InspectGranularity() uint64 { return pageBytes }

// InspectAddr implements hmm.Inspector. Unison is a pure cache: the home
// is always the folded DRAM page; a valid way holds the fetched subset of
// its blocks.
func (c *Cache) InspectAddr(a addr.Addr) hmm.PageInfo {
	page := uint64(c.dev.Geom.DRAMLocal(a)) / pageBytes
	set := page % c.sets()
	info := hmm.PageInfo{
		Page:      page,
		Allocated: true,
		Home:      hmm.TierDRAM,
		HomeFrame: page,
	}
	if wi := c.lookup(set, page); wi >= 0 {
		info.HasCache = true
		info.CacheFrame = set*uint64(ways) + uint64(wi)
	}
	return info
}

// LocateLine implements hmm.Inspector: only blocks the footprint fetch
// actually brought in are served from HBM.
func (c *Cache) LocateLine(a addr.Addr) hmm.Tier {
	da := uint64(c.dev.Geom.DRAMLocal(a))
	page := da / pageBytes
	blk := (da % pageBytes) / blockBytes
	set := page % c.sets()
	if wi := c.lookup(set, page); wi >= 0 {
		w := &c.row(set)[wi]
		if w.get(&w.present, blk) {
			return hmm.TierHBM
		}
	}
	return hmm.TierDRAM
}

// CheckInvariants implements hmm.Inspector: tag placement/uniqueness plus
// the bitmap subset rules (a block can only be dirty or touched if it was
// fetched).
func (c *Cache) CheckInvariants() error {
	dramPages := c.dev.Geom.DRAMBytes / pageBytes
	for si := uint64(0); si < c.sets(); si++ {
		seen := make(map[uint64]bool, ways)
		r := c.row(si)
		for wi := range r {
			w := &r[wi]
			if !w.valid {
				continue
			}
			if w.tag%c.sets() != si {
				return fmt.Errorf("unison: set %d way %d holds page %d which maps to set %d",
					si, wi, w.tag, w.tag%c.sets())
			}
			if w.tag >= dramPages {
				return fmt.Errorf("unison: set %d way %d holds page %d beyond DRAM (%d pages)",
					si, wi, w.tag, dramPages)
			}
			if seen[w.tag] {
				return fmt.Errorf("unison: page %d resident twice in set %d", w.tag, si)
			}
			seen[w.tag] = true
			for i := range w.present {
				if w.dirty[i]&^w.present[i] != 0 {
					return fmt.Errorf("unison: set %d way %d has dirty blocks never fetched", si, wi)
				}
				if w.touched[i]&^w.present[i] != 0 {
					return fmt.Errorf("unison: set %d way %d has touched blocks never fetched", si, wi)
				}
			}
		}
	}
	cnt := c.Counters()
	if cnt.ServedHBM+cnt.ServedDRAM != cnt.Requests {
		return fmt.Errorf("unison: served %d HBM + %d DRAM != %d requests",
			cnt.ServedHBM, cnt.ServedDRAM, cnt.Requests)
	}
	return nil
}
