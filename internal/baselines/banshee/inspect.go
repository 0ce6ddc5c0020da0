package banshee

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/hmm"
)

var _ hmm.Inspector = (*Cache)(nil)

// InspectGranularity implements hmm.Inspector.
func (c *Cache) InspectGranularity() uint64 { return pageBytes }

// InspectAddr implements hmm.Inspector. Banshee is a pure cache: the home
// is always the folded DRAM page; a valid way is a whole-page HBM copy.
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

// LocateLine implements hmm.Inspector: whole pages are resident, so a
// mapping hit serves any line of the page from HBM.
func (c *Cache) LocateLine(a addr.Addr) hmm.Tier {
	page := uint64(c.dev.Geom.DRAMLocal(a)) / pageBytes
	if c.lookup(page%c.sets(), page) >= 0 {
		return hmm.TierHBM
	}
	return hmm.TierDRAM
}

// CheckInvariants implements hmm.Inspector: the SRAM mapping must stay a
// partial injection — every valid way holds a distinct in-range page that
// indexes to its set.
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
				return fmt.Errorf("banshee: set %d way %d holds page %d which maps to set %d",
					si, wi, w.tag, w.tag%c.sets())
			}
			if w.tag >= dramPages {
				return fmt.Errorf("banshee: set %d way %d holds page %d beyond DRAM (%d pages)",
					si, wi, w.tag, dramPages)
			}
			if seen[w.tag] {
				return fmt.Errorf("banshee: page %d resident twice in set %d", w.tag, si)
			}
			seen[w.tag] = true
		}
	}
	cnt := c.Counters()
	if cnt.ServedHBM+cnt.ServedDRAM != cnt.Requests {
		return fmt.Errorf("banshee: served %d HBM + %d DRAM != %d requests",
			cnt.ServedHBM, cnt.ServedDRAM, cnt.Requests)
	}
	return nil
}
