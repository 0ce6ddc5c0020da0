package alloy

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/hmm"
)

var _ hmm.Inspector = (*Cache)(nil)

// InspectGranularity implements hmm.Inspector: Alloy manages 64 B lines.
func (c *Cache) InspectGranularity() uint64 { return 64 }

// InspectAddr implements hmm.Inspector. The canonical identity is the
// folded DRAM line number: the home is always that DRAM line, and the
// direct-mapped TAD may hold a cache copy.
func (c *Cache) InspectAddr(a addr.Addr) hmm.PageInfo {
	lineNo := uint64(c.dev.Geom.DRAMLocal(a)) / 64
	idx, _, want := c.slot(lineNo)
	info := hmm.PageInfo{
		Page:      lineNo,
		Allocated: true,
		Home:      hmm.TierDRAM,
		HomeFrame: lineNo,
	}
	if holds(c.tads[idx], want) {
		info.HasCache = true
		info.CacheFrame = idx
	}
	return info
}

// LocateLine implements hmm.Inspector.
func (c *Cache) LocateLine(a addr.Addr) hmm.Tier {
	lineNo := uint64(c.dev.Geom.DRAMLocal(a)) / 64
	idx, _, want := c.slot(lineNo)
	if holds(c.tads[idx], want) {
		return hmm.TierHBM
	}
	return hmm.TierDRAM
}

// CheckInvariants implements hmm.Inspector: every valid TAD must hold a
// line that exists in DRAM. A quotient tag direct-maps to its TAD by
// construction.
func (c *Cache) CheckInvariants() error {
	dramLines := c.dev.Geom.DRAMBytes / 64
	for idx, t := range c.tads {
		if t&tadValid == 0 {
			continue
		}
		if l := c.lineOf(uint64(idx), t); l >= dramLines {
			return fmt.Errorf("alloy: TAD %d holds line %d beyond DRAM (%d lines)",
				idx, l, dramLines)
		}
	}
	cnt := c.Counters()
	if cnt.ServedHBM+cnt.ServedDRAM != cnt.Requests {
		return fmt.Errorf("alloy: served %d HBM + %d DRAM != %d requests",
			cnt.ServedHBM, cnt.ServedDRAM, cnt.Requests)
	}
	return nil
}
