package chameleon

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/hmm"
)

var _ hmm.Inspector = (*System)(nil)

// InspectGranularity implements hmm.Inspector.
func (s *System) InspectGranularity() uint64 { return segmentBytes }

// InspectAddr implements hmm.Inspector. The canonical identity of a
// segment is grp*(G+1)+member — stable across swaps, unique per group
// member. The segment lives in the group's single HBM frame (frame index
// = group) or in one of its G DRAM slots.
func (s *System) InspectAddr(a addr.Addr) hmm.PageInfo {
	grp, member, _ := s.locate(a)
	info := hmm.PageInfo{
		Page:      s.memberIdx(grp, member),
		Allocated: true,
	}
	if loc := s.loc[info.Page]; loc == uint16(s.g) {
		info.Home = hmm.TierHBM
		info.HomeFrame = grp
	} else {
		info.Home = hmm.TierDRAM
		info.HomeFrame = s.dramSeg(grp, uint64(loc))
	}
	return info
}

// LocateLine implements hmm.Inspector: whole segments relocate, so the
// serve tier is the segment's current slot.
func (s *System) LocateLine(a addr.Addr) hmm.Tier {
	grp, member, _ := s.locate(a)
	if s.loc[s.memberIdx(grp, member)] == uint16(s.g) {
		return hmm.TierHBM
	}
	return hmm.TierDRAM
}

// CheckInvariants implements hmm.Inspector: each group's loc must remain
// a permutation of its G+1 slots with exactly one member in the HBM slot,
// and that member must be the cached hbmOwner.
func (s *System) CheckInvariants() error {
	width := s.g + 1
	seen := make([]bool, width)
	for gi, owner := range s.hbmOwner {
		clear(seen)
		hbmMember := -1
		for m, loc := range s.loc[uint64(gi)*width : uint64(gi+1)*width] {
			if uint64(loc) > s.g {
				return fmt.Errorf("chameleon: group %d member %d maps to slot %d beyond group", gi, m, loc)
			}
			if seen[loc] {
				return fmt.Errorf("chameleon: group %d slot %d holds two segments", gi, loc)
			}
			seen[loc] = true
			if uint64(loc) == s.g {
				hbmMember = m
			}
		}
		// A full permutation with one HBM slot implies exactly one owner;
		// it must agree with the cached hbmOwner shortcut the serve path
		// trusts.
		if hbmMember < 0 {
			return fmt.Errorf("chameleon: group %d has no HBM occupant", gi)
		}
		if uint16(hbmMember) != owner {
			return fmt.Errorf("chameleon: group %d hbmOwner=%d but member %d occupies HBM",
				gi, owner, hbmMember)
		}
	}
	c := s.Counters()
	if c.ServedHBM+c.ServedDRAM != c.Requests {
		return fmt.Errorf("chameleon: served %d HBM + %d DRAM != %d requests",
			c.ServedHBM, c.ServedDRAM, c.Requests)
	}
	return nil
}
