package nohbm

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/hmm"
)

var _ hmm.Inspector = (*System)(nil)

// InspectGranularity implements hmm.Inspector.
func (s *System) InspectGranularity() uint64 { return s.dev.Geom.PageSize }

// InspectAddr implements hmm.Inspector: every page lives at its folded
// DRAM position, permanently. Without HBM the OS-visible memory is only
// the DRAM capacity.
func (s *System) InspectAddr(a addr.Addr) hmm.PageInfo {
	g := s.dev.Geom
	p := g.PageOf(g.DRAMLocal(a))
	return hmm.PageInfo{Page: p, Allocated: true, Home: hmm.TierDRAM, HomeFrame: p}
}

// LocateLine implements hmm.Inspector.
func (s *System) LocateLine(addr.Addr) hmm.Tier { return hmm.TierDRAM }

// CheckInvariants implements hmm.Inspector: the design is stateless, so
// only counter accounting can go wrong.
func (s *System) CheckInvariants() error {
	c := s.Counters()
	if c.ServedHBM != 0 {
		return fmt.Errorf("nohbm: %d accesses served from nonexistent HBM", c.ServedHBM)
	}
	if c.ServedDRAM != c.Requests {
		return fmt.Errorf("nohbm: served %d DRAM != %d requests", c.ServedDRAM, c.Requests)
	}
	return nil
}
