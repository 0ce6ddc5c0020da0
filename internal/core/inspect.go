package core

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/addr"
	"repro/internal/hmm"
)

// DumpSet writes a human-readable snapshot of one remapping set: the BLE
// array (mode, resident page, valid/dirty density, shadow), the hot-table
// queues, and the derived parameters (Rh, T, Nc, Na, Nn, SL). This is
// the debugging view of everything Figure 3 draws.
func (b *Bumblebee) DumpSet(w io.Writer, setIdx uint64) error {
	if setIdx >= uint64(len(b.sets)) {
		return fmt.Errorf("core: set %d out of range [0,%d)", setIdx, len(b.sets))
	}
	s := b.sets[setIdx]
	nc, na, nn := s.localityCounts()
	fmt.Fprintf(w, "set %d: Rh=%d/%d T=%d Nc=%d Na=%d Nn=%d SL=%d cHBMOff=%v\n",
		setIdx, b.n-s.classes[classFree], b.n, s.hot.hbm.minCount(), nc, na, nn, na-nn-nc, s.cHBMOff)
	for w2 := range s.bles {
		e := &s.bles[w2]
		mode := "free  "
		switch e.mode {
		case bleCached:
			mode = "cached"
		case bleMHBM:
			mode = "mHBM  "
		}
		fmt.Fprintf(w, "  way %d: %s orig=%-4d valid=%2d/%d dirty=%2d shadow=%d occup=%d\n",
			w2, mode, e.orig, e.valid.popcount(), b.blocksPerPage,
			e.dirty.popcount(), e.shadow, s.occupant[b.m+w2])
	}
	fmt.Fprintf(w, "  hot HBM : %s\n", dumpQueue(&s.hot.hbm))
	fmt.Fprintf(w, "  hot DRAM: %s\n", dumpQueue(&s.hot.dram))
	return nil
}

func dumpQueue(q *hotQueue) string {
	if q.len() == 0 {
		return "(empty)"
	}
	parts := make([]string, 0, q.len())
	for _, e := range q.entries {
		parts = append(parts, fmt.Sprintf("%d:%d", e.orig, e.count))
	}
	return strings.Join(parts, " ") + "  (LRU..MRU, orig:count)"
}

var _ hmm.Inspector = (*Bumblebee)(nil)

// InspectGranularity implements hmm.Inspector.
func (b *Bumblebee) InspectGranularity() uint64 { return b.geom.PageSize }

// InspectAddr implements hmm.Inspector: a read-only PRT/BLE walk for the
// page holding a. Unlike Access it never allocates, so the result for an
// untouched page is Allocated=false.
func (b *Bumblebee) InspectAddr(a addr.Addr) hmm.PageInfo {
	p := b.geom.FoldPage(b.geom.PageOf(a))
	setIdx := b.geom.SetOf(p)
	s := b.sets[setIdx]
	orig := int16(b.geom.SlotOf(p))
	info := hmm.PageInfo{Page: p}
	slot := s.newPLE[orig]
	if slot < 0 {
		return info
	}
	info.Allocated = true
	info.Aliased = s.aliased[orig]
	if b.geom.IsHBMSlot(uint64(slot)) {
		info.Home = hmm.TierHBM
		info.HomeFrame = b.geom.HBMFrameOfSlot(setIdx, uint64(slot))
		return info
	}
	info.Home = hmm.TierDRAM
	info.HomeFrame = b.geom.DRAMFrameOfSlot(setIdx, uint64(slot))
	if w := s.findCachedWay(orig); w >= 0 {
		info.HasCache = true
		info.CacheFrame = b.geom.HBMFrameOfSlot(setIdx, uint64(b.m+w))
	}
	return info
}

// LocateLine implements hmm.Inspector: it replays the Figure 5 serve
// decision (mHBM slot → HBM; cached block → HBM; otherwise off-chip
// DRAM) without side effects.
func (b *Bumblebee) LocateLine(a addr.Addr) hmm.Tier {
	p := b.geom.FoldPage(b.geom.PageOf(a))
	s := b.sets[b.geom.SetOf(p)]
	orig := int16(b.geom.SlotOf(p))
	slot := s.newPLE[orig]
	if slot < 0 {
		return hmm.TierNone
	}
	if b.geom.IsHBMSlot(uint64(slot)) {
		return hmm.TierHBM
	}
	blk := b.geom.BlockInPage(a)
	if w := s.findCachedWay(orig); w >= 0 && s.bles[w].valid.get(blk) {
		return hmm.TierHBM
	}
	return hmm.TierDRAM
}

// CheckInvariants implements hmm.Inspector: the PRT/BLE/occupant
// cross-structure consistency that every mutation must preserve, plus the
// retirement quarantine (VerifyRetired) and counter-accounting sanity.
//
// One asymmetry is deliberate: the occupant→newPLE direction is always
// enforced, but newPLE→occupant for DRAM slots only in sets that have
// never aliased a page. An aliased page shares a victim's frame without
// an occupant claim, and its later migration or swap can legitimately
// leave the victim's newPLE entry dangling — the documented degraded
// mode of allocation overflow. Aliasing only ever targets DRAM slots, so
// a page homed in HBM is always held by that way as its mHBM page: the
// BLE mode alone records whether a frame is in use.
func (b *Bumblebee) CheckInvariants() error {
	for si, s := range b.sets {
		anyAliased := false
		for _, al := range s.aliased {
			if al {
				anyAliased = true
				break
			}
		}
		// The BLE mode is the single record of whether a frame is in use:
		// only an mHBM page occupies its frame's page space.
		cachedSeen := make(map[int16]bool)
		retiredCount := 0
		for w := range s.bles {
			e := &s.bles[w]
			slot := int16(b.m + w)
			want := int16(-1)
			if e.mode == bleMHBM {
				want = e.orig
			}
			if s.occupant[slot] != want {
				return fmt.Errorf("core: set %d way %d: occupant %d, but the way holds mode %d page %d",
					si, w, s.occupant[slot], e.mode, e.orig)
			}
			if s.retired[w] {
				retiredCount++
				if e.mode != bleFree {
					return fmt.Errorf("core: set %d way %d: retired frame still allocated (mode=%d)", si, w, e.mode)
				}
			}
			if e.mode != bleMHBM && e.shadow != -1 {
				return fmt.Errorf("core: set %d way %d: non-mHBM frame has shadow %d", si, w, e.shadow)
			}
			switch e.mode {
			case bleMHBM:
				if e.shadow >= int16(b.m) {
					return fmt.Errorf("core: set %d way %d: shadow %d is not a DRAM slot", si, w, e.shadow)
				}
			case bleCached:
				if cachedSeen[e.orig] {
					return fmt.Errorf("core: set %d: page %d cached twice", si, e.orig)
				}
				cachedSeen[e.orig] = true
				home := s.newPLE[e.orig]
				if home < 0 || b.geom.IsHBMSlot(uint64(home)) {
					return fmt.Errorf("core: set %d way %d: cached page %d has non-DRAM home %d",
						si, w, e.orig, home)
				}
			case bleFree:
				if e.valid.popcount() != 0 || e.dirty.popcount() != 0 {
					return fmt.Errorf("core: set %d way %d: free frame has stale valid/dirty bits", si, w)
				}
			}
		}
		// occupant and newPLE must be inverse of each other, except that a
		// DRAM slot may be held as the shadow copy of an mHBM page.
		for slot, o := range s.occupant {
			if o < 0 {
				continue
			}
			if s.newPLE[o] == int16(slot) {
				continue
			}
			home := s.newPLE[o]
			if home >= int16(b.m) {
				w := wayOfSlot(home, b.m)
				if s.bles[w].mode == bleMHBM && s.bles[w].orig == o && s.bles[w].shadow == int16(slot) {
					continue // slot reserved as o's shadow
				}
			}
			return fmt.Errorf("core: set %d: occupant[%d]=%d but newPLE[%d]=%d and no shadow",
				si, slot, o, o, s.newPLE[o])
		}
		for o, slot := range s.newPLE {
			if slot < 0 {
				if s.aliased[o] {
					return fmt.Errorf("core: set %d: page %d aliased but unallocated", si, o)
				}
				continue
			}
			if slot >= int16(b.m) {
				if e := &s.bles[wayOfSlot(slot, b.m)]; e.mode != bleMHBM || e.orig != int16(o) {
					return fmt.Errorf("core: set %d: newPLE[%d]=%d but that way holds mode %d page %d",
						si, o, slot, e.mode, e.orig)
				}
			}
			if !anyAliased && s.occupant[slot] != int16(o) {
				return fmt.Errorf("core: set %d: newPLE[%d]=%d but occupant[%d]=%d (no aliasing to excuse it)",
					si, o, slot, slot, s.occupant[slot])
			}
		}
		if retiredCount != s.retiredCount {
			return fmt.Errorf("core: set %d: retiredCount=%d but %d retired ways",
				si, s.retiredCount, retiredCount)
		}
		if err := b.checkSummaries(s); err != nil {
			return fmt.Errorf("core: set %d: %w", si, err)
		}
		// Every HBM hot-queue entry must name an HBM-resident page, each
		// page once. The queue then holds at most one entry per HBM way,
		// so a resident page missing from it always finds room there:
		// touchHBMPage's push never pops.
		for i, e := range s.hot.hbm.entries {
			if s.hot.hbm.find(e.orig) != i {
				return fmt.Errorf("core: set %d: page %d has two hot HBM entries", si, e.orig)
			}
			slot := s.newPLE[e.orig]
			resident := (slot >= int16(b.m) && s.occupant[slot] == e.orig) ||
				s.findCachedWay(e.orig) >= 0
			if !resident {
				return fmt.Errorf("core: set %d: hot HBM entry %d not HBM-resident (slot %d)",
					si, e.orig, slot)
			}
		}
	}
	// Counter accounting: each access is served from exactly one tier, and
	// each retired data frame is evacuated at most once (a drop or a
	// migration, never both, never more than the injector retired). A
	// violation here means an underflow or double-count crept into the
	// retirement path.
	c := b.Counters()
	if c.ServedHBM+c.ServedDRAM != c.Requests {
		return fmt.Errorf("core: served %d HBM + %d DRAM != %d requests",
			c.ServedHBM, c.ServedDRAM, c.Requests)
	}
	if b.dev.RAS != nil {
		if c.RetireDrops+c.RetireMigrations > c.FramesRetired {
			return fmt.Errorf("core: retire drops %d + migrations %d exceed %d retired frames",
				c.RetireDrops, c.RetireMigrations, c.FramesRetired)
		}
		if uint64(b.RetiredFrameCount()) > c.FramesRetired {
			return fmt.Errorf("core: %d quarantined frames exceed %d injector retirements",
				b.RetiredFrameCount(), c.FramesRetired)
		}
	}
	return b.VerifyRetired()
}

// checkSummaries recomputes set s's summaries by scanning its BLEs and
// reports any difference from the ones recount keeps: the free way
// count, Nc, Na and Nn, and the cached-way index in both directions.
func (b *Bumblebee) checkSummaries(s *pset) error {
	free, nc, na, nn := 0, 0, 0, 0
	for w := range s.bles {
		e := &s.bles[w]
		switch e.mode {
		case bleFree:
			free++
		case bleCached:
			nc++
			if got := s.cachedWay[e.orig]; got != int16(w) {
				return fmt.Errorf("way %d caches page %d but the cached-way index holds %d", w, e.orig, got)
			}
		case bleMHBM:
			if e.valid.popcount() > b.halfBlocks {
				na++
			} else {
				nn++
			}
		}
	}
	for o, w := range s.cachedWay {
		if w < -1 || int(w) >= len(s.bles) {
			return fmt.Errorf("cached-way index maps page %d to way %d, outside the set's %d ways",
				o, w, len(s.bles))
		}
		if w >= 0 && (s.bles[w].mode != bleCached || s.bles[w].orig != int16(o)) {
			return fmt.Errorf("cached-way index maps page %d to way %d, which holds mode %d page %d",
				o, w, s.bles[w].mode, s.bles[w].orig)
		}
	}
	gnc, gna, gnn := s.localityCounts()
	if gfree := s.classes[classFree]; gfree != free || gnc != nc || gna != na || gnn != nn {
		return fmt.Errorf("summaries free=%d Nc=%d Na=%d Nn=%d, scan free=%d Nc=%d Na=%d Nn=%d",
			gfree, gnc, gna, gnn, free, nc, na, nn)
	}
	return nil
}

// Summary writes a one-screen overview of the controller's state: frame
// mode distribution, shadow count, movement counters.
func (b *Bumblebee) Summary(w io.Writer) {
	cached, mhbm, free := b.FrameModes()
	shadows := 0
	flushed := 0
	for _, s := range b.sets {
		if s.cHBMOff {
			flushed++
		}
		for w2 := range s.bles {
			if s.bles[w2].shadow >= 0 {
				shadows++
			}
		}
	}
	c := b.Counters()
	fmt.Fprintf(w, "frames: %d cHBM, %d mHBM, %d free (%d shadow copies, %d sets flushed, %d retired)\n",
		cached, mhbm, free, shadows, flushed, b.RetiredFrameCount())
	fmt.Fprintf(w, "moves: %d fills, %d migrations, %d switches, %d swaps, %d evictions\n",
		c.BlockFills, c.PageMigrations, c.ModeSwitches, c.PageSwaps, c.Evictions)
	fmt.Fprintf(w, "mover: %d started, %d skipped (budget)\n", b.mover.Started, b.mover.Skipped)
}
