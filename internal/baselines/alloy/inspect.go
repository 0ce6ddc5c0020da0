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
	idx, _ := c.slot(lineNo)
	info := hmm.PageInfo{
		Page:      lineNo,
		Allocated: true,
		Home:      hmm.TierDRAM,
		HomeFrame: lineNo,
	}
	if l := &c.lines[idx]; l.valid && l.tag == lineNo {
		info.HasCache = true
		info.CacheFrame = idx
	}
	return info
}

// LocateLine implements hmm.Inspector.
func (c *Cache) LocateLine(a addr.Addr) hmm.Tier {
	lineNo := uint64(c.dev.Geom.DRAMLocal(a)) / 64
	idx, _ := c.slot(lineNo)
	if l := &c.lines[idx]; l.valid && l.tag == lineNo {
		return hmm.TierHBM
	}
	return hmm.TierDRAM
}

// CheckInvariants implements hmm.Inspector: every valid TAD must hold a
// line that direct-maps to it and exists in DRAM.
func (c *Cache) CheckInvariants() error {
	dramLines := c.dev.Geom.DRAMBytes / 64
	for idx := range c.lines {
		l := &c.lines[idx]
		if !l.valid {
			continue
		}
		if l.tag%uint64(len(c.lines)) != uint64(idx) {
			return fmt.Errorf("alloy: TAD %d holds line %d which maps to TAD %d",
				idx, l.tag, l.tag%uint64(len(c.lines)))
		}
		if l.tag >= dramLines {
			return fmt.Errorf("alloy: TAD %d holds line %d beyond DRAM (%d lines)",
				idx, l.tag, dramLines)
		}
	}
	cnt := c.Counters()
	if cnt.ServedHBM+cnt.ServedDRAM != cnt.Requests {
		return fmt.Errorf("alloy: served %d HBM + %d DRAM != %d requests",
			cnt.ServedHBM, cnt.ServedDRAM, cnt.Requests)
	}
	return nil
}
