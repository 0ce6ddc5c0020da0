// Package chameleon implements Chameleon (Kotra et al., MICRO 2018): a
// part-of-memory (POM) design. The flat address space is divided into
// remapping groups of G off-chip DRAM segments plus exactly one HBM
// segment ("it restricts only one HBM sector in each remapping set"); a
// hot DRAM segment swaps with the group's HBM occupant when its access
// counter overtakes it. Remap metadata lives in HBM behind a small SRAM
// metadata cache, so metadata misses cost HBM bandwidth and latency —
// the overhead the paper calls out.
package chameleon

import (
	"repro/internal/addr"
	"repro/internal/config"
	"repro/internal/hmm"
	"repro/internal/telemetry"
)

// swapDelta is the hysteresis before a hot segment displaces the HBM
// occupant, economizing migration bandwidth like Chameleon's lazy policy.
const swapDelta = 4

// System is the Chameleon POM design. Each remapping group has G+1
// members: 0..G-1 are its DRAM segments and member G is its native HBM
// segment. Per-member state sits in flat arrays indexed grp*(G+1)+m.
// loc is the data-location permutation: loc[grp*(G+1)+m] is the slot
// holding member m's data (values 0..G-1 name DRAM slots, G names the
// HBM segment), so repeated swaps stay consistent. counts holds each
// member's access counter, and hbmOwner[grp] caches the member whose
// loc is G.
type System struct {
	dev      *hmm.Devices
	cnt      hmm.Counters
	meta     *hmm.Meta
	mcache   *hmm.MetaCache
	os       *hmm.OSMem
	mover    *hmm.Mover
	loc      []uint16
	counts   []uint32
	hbmOwner []uint16
	g        uint64 // DRAM segments per group
	ticks    uint64
}

var _ hmm.MemSystem = (*System)(nil)

// segmentBytes is Chameleon's remapping granularity: small sectors keep
// swap costs low (the published design manages KB-scale segments, far
// finer than Bumblebee's 64 KB pages).
const segmentBytes = 4 * addr.KiB

// New builds a Chameleon system over the devices of sys with its own
// 4 KB-segment geometry.
func New(sys config.System) (*System, error) {
	geom, err := addr.NewGeometry(segmentBytes, 64, sys.DRAM.CapacityBytes, sys.HBM.CapacityBytes, 1)
	if err != nil {
		return nil, err
	}
	dev, err := hmm.NewDevicesWithGeometry(sys, geom)
	if err != nil {
		return nil, err
	}
	groups := geom.HBMPages()
	s := &System{
		dev:      dev,
		g:        geom.DRAMPages() / groups,
		hbmOwner: make([]uint16, groups),
	}
	s.loc = make([]uint16, groups*(s.g+1))
	s.counts = make([]uint32, len(s.loc))
	for i := range s.loc {
		s.loc[i] = uint16(uint64(i) % (s.g + 1))
	}
	for i := range s.hbmOwner {
		s.hbmOwner[i] = uint16(s.g)
	}
	s.os = hmm.NewOSMem(geom.DRAMBytes+geom.HBMBytes, geom.PageSize, sys.PageFaultNS, sys.Core.FreqMHz)
	dramBPC := sys.DRAM.PeakBandwidthGBs() * 1e9 / (float64(sys.Core.FreqMHz) * 1e6)
	s.mover = hmm.NewMover(0.5 * dramBPC)
	s.meta = hmm.NewMeta(sys, dev, true)
	// 512 KB SRAM metadata cache at ~8 B per entry, keyed by group.
	s.mcache, err = hmm.NewMetaCache(s.meta, 64*1024, groups)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Name implements hmm.MemSystem.
func (s *System) Name() string { return "chameleon" }

// Devices implements hmm.MemSystem.
func (s *System) Devices() *hmm.Devices { return s.dev }

// Counters implements hmm.MemSystem.
func (s *System) Counters() hmm.Counters {
	c := s.cnt
	c.MetaLookups = s.meta.Lookups
	c.MetaHBM = s.meta.HBMHits
	c.PageFaults = s.os.Faults
	s.dev.AddRAS(&c)
	return c
}

// locate maps a flat address to (group, member, offset). Segments
// interleave across groups; member g is the group's own HBM segment.
func (s *System) locate(a addr.Addr) (grp uint64, member uint64, off uint64) {
	geom := s.dev.Geom
	p := geom.FoldPage(geom.PageOf(a))
	off = geom.PageOffset(a)
	groups := uint64(len(s.hbmOwner))
	if geom.IsHBMPage(p) {
		return (p - geom.DRAMPages()) % groups, s.g, off
	}
	return p % groups, p / groups % s.g, off
}

// memberIdx returns the index of member m of group grp in loc and counts.
func (s *System) memberIdx(grp, m uint64) uint64 { return grp*(s.g+1) + m }

func (s *System) decay() {
	s.ticks++
	if s.ticks%(1<<14) != 0 {
		return
	}
	for i := range s.counts {
		s.counts[i] /= 2
	}
}

// dramSeg returns the DRAM device frame index of member m in group grp.
func (s *System) dramSeg(grp, m uint64) uint64 { return m*uint64(len(s.hbmOwner)) + grp }

// Access implements hmm.MemSystem.
func (s *System) Access(now uint64, a addr.Addr, write bool) uint64 {
	t0 := now
	s.cnt.Requests++
	s.decay()
	now = s.os.Admit(now, a)
	grp, member, off := s.locate(a)
	mi := s.memberIdx(grp, member)

	// Remap lookup through the SRAM metadata cache over in-HBM metadata.
	metaDone := s.mcache.Lookup(now, grp)

	s.counts[mi]++
	off64 := off &^ 63

	var done uint64
	// Chameleon's HBM segments are OS-visible POM space, so an HBM serve
	// is an mHBM serve in the telemetry taxonomy.
	tier := telemetry.TierDRAM
	if loc := s.loc[mi]; loc == uint16(s.g) {
		done = s.dev.AccessHBM(metaDone, grp, off64, 64, write)
		s.cnt.ServedHBM++
		tier = telemetry.TierMHBM
	} else {
		done = s.dev.AccessDRAM(metaDone, s.dramSeg(grp, uint64(loc)), off64, 64, write)
		s.cnt.ServedDRAM++
		if member != s.g {
			s.maybeSwap(now, grp, member)
		}
	}
	s.dev.Tel.ObserveAccess(tier, t0, done)
	return done
}

// maybeSwap swaps the accessed DRAM segment into HBM when its counter
// overtakes the occupant's by the hysteresis.
func (s *System) maybeSwap(now uint64, grp, member uint64) {
	mi := s.memberIdx(grp, member)
	occupant := uint64(s.hbmOwner[grp])
	oi := s.memberIdx(grp, occupant)
	if s.counts[mi] <= s.counts[oi]+swapDelta {
		return
	}
	if !s.mover.TryStart(now, 2*s.dev.Geom.PageSize) {
		return // movement engine saturated
	}
	// Swap data: the member's segment moves to HBM, the occupant's data
	// moves to the member's current DRAM slot.
	memberSlot := s.loc[mi]
	s.dev.SwapPages(now, s.dramSeg(grp, uint64(memberSlot)), grp)
	s.loc[oi] = memberSlot
	s.loc[mi] = uint16(s.g)
	s.hbmOwner[grp] = uint16(member)
	s.cnt.PageSwaps++
	s.dev.Tel.Event(now, telemetry.EvRemap, grp, member, occupant)
	s.cnt.FetchedBytes += s.dev.Geom.PageSize
	// Metadata update in HBM.
	s.meta.Update(now, grp)
}

// Writeback implements hmm.MemSystem.
func (s *System) Writeback(now uint64, a addr.Addr) {
	s.cnt.Writebacks++
	grp, member, off := s.locate(a)
	off64 := off &^ 63
	if loc := s.loc[s.memberIdx(grp, member)]; loc == uint16(s.g) {
		s.dev.WriteHBM(now, grp, off64, 64)
	} else {
		s.dev.WriteDRAM(now, s.dramSeg(grp, uint64(loc)), off64, 64)
	}
}
