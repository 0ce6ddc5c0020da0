package core

// Graceful degradation under RAS faults: when the fault injector retires
// an HBM page frame, Bumblebee evacuates it before quarantining the way.
// cHBM frames are dropped immediately (dirty blocks written back — the
// DRAM home is current for everything else); mHBM pages are OS-visible
// and must be re-homed to off-chip DRAM via the movement engine before
// the frame leaves the pset pools. Evacuations compete with normal data
// movement for the mover's bandwidth budget, so a migration may be
// deferred a bounded number of accesses before it is forced through.
// Fault-oblivious baselines have none of this: they keep serving from
// dead frames, and the RetiredServes counter measures that gap.

import (
	"fmt"

	"repro/internal/telemetry"
)

// retireMaxTries bounds how many accesses an mHBM evacuation may be
// deferred when the movement engine is saturated before the migration is
// forced through regardless of budget (correctness over bandwidth).
const retireMaxTries = 3

// retirement is one frame awaiting evacuation.
type retirement struct {
	frame uint64
	tries int
}

// drainRetirements pulls newly failed frames from the injector and
// evacuates them (plus any evacuation deferred earlier). Called at the
// top of every Access, so the window during which a dead frame can still
// serve data is at most one inter-access gap.
func (b *Bumblebee) drainRetirements(now uint64) {
	if b.dev.RAS == nil {
		return
	}
	for _, f := range b.dev.RAS.TakeRetirements() {
		b.pendingRetire = append(b.pendingRetire, retirement{frame: f})
	}
	if len(b.pendingRetire) == 0 {
		return
	}
	remain := b.pendingRetire[:0]
	for _, r := range b.pendingRetire {
		if b.retireFrame(now, r.frame, r.tries) {
			continue
		}
		r.tries++
		b.cnt.RetireDeferred++
		remain = append(remain, r)
	}
	b.pendingRetire = remain
}

// retireFrame evacuates one HBM frame and quarantines its way. It
// returns false when the evacuation must be retried later (movement
// engine saturated and the retry budget not yet exhausted).
func (b *Bumblebee) retireFrame(now uint64, frame uint64, tries int) bool {
	sets := b.geom.Sets()
	setIdx := frame % sets
	way := int(frame / sets)
	if way >= b.n {
		return true // not a data frame (e.g. in-HBM metadata region)
	}
	s := b.sets[setIdx]
	if s.retired[way] {
		return true
	}
	e := &s.bles[way]
	modeHeld := e.mode
	switch e.mode {
	case bleCached:
		// The DRAM home holds everything except dirtied blocks: write
		// those back and drop the frame. No page movement budget needed —
		// this is the cheap half of the cache/POM blast-radius split.
		b.dropCachedWay(now, setIdx, s, way)
		b.cnt.RetireDrops++
	case bleMHBM:
		// OS-visible page: it must be migrated out before the frame dies.
		// The migration is charged to the movement engine; under
		// contention it is deferred up to retireMaxTries accesses, then
		// forced through.
		if !b.mover.TryStart(now, b.geom.PageSize) {
			if tries < retireMaxTries {
				return false
			}
			b.mover.Charge(b.geom.PageSize)
		}
		he, ok := s.hot.hbm.remove(e.orig)
		if !ok {
			he = hotEntry{orig: e.orig, count: 1}
		}
		b.evictMHBMPage(now, setIdx, s, he)
		if e.mode == bleMHBM {
			// No DRAM slot and no reclaimable shadow: the set's DRAM half
			// is full of live pages. The page loses its home entirely and
			// falls back to aliasing, like an allocation overflow — its
			// data is parked on its original DRAM-range position and every
			// future touch pays the OS paging penalty.
			b.aliasOutRetired(now, setIdx, s, way)
		}
		b.cnt.RetireMigrations++
	}
	s.retired[way] = true
	s.retiredCount++
	b.dev.Tel.Event(now, telemetry.EvQuarantine, frame, uint64(modeHeld), 0)
	return true
}

// aliasOutRetired force-evacuates an mHBM page that evictMHBMPage could
// not re-home (no free DRAM slot in the set). The page's data is copied
// to its original DRAM-range position and the page marked aliased.
func (b *Bumblebee) aliasOutRetired(now uint64, setIdx uint64, s *pset, way int) {
	e := &s.bles[way]
	orig := e.orig
	s.hot.hbm.remove(orig)
	s.hot.dram.remove(orig)
	hframe := b.geom.HBMFrameOfSlot(setIdx, uint64(b.m+way))
	alias := orig % int16(b.m)
	dframe := b.geom.DRAMFrameOfSlot(setIdx, uint64(alias))
	b.dev.CopyHBMToDRAM(now, hframe, 0, dframe, 0, b.geom.PageSize)
	s.occupant[b.m+way] = -1
	s.newPLE[orig] = alias
	s.aliased[orig] = true
	e.mode = bleFree
	e.orig = -1
	e.valid.reset()
	e.dirty.reset()
	e.shadow = -1
	b.recount(s, way)
	b.ft.OnEvict(hframe)
	b.cnt.Evictions++
	b.AllocOverflow++
	b.dev.Tel.Event(now, telemetry.EvRemap, setIdx, uint64(uint16(orig)), uint64(uint16(alias)))
}

// RetiredFrameCount reports how many HBM frames the controller has
// quarantined so far.
func (b *Bumblebee) RetiredFrameCount() int {
	n := 0
	for _, s := range b.sets {
		n += s.retiredCount
	}
	return n
}

// VerifyRetired checks the retirement invariant: every frame the
// injector has retired is either still queued for evacuation or
// quarantined with nothing allocated in it. Tests call this after a
// faulted run; a non-nil error means a dead frame was serving data.
func (b *Bumblebee) VerifyRetired() error {
	if b.dev.RAS == nil {
		return nil
	}
	pending := make(map[uint64]bool, len(b.pendingRetire))
	for _, r := range b.pendingRetire {
		pending[r.frame] = true
	}
	for _, f := range b.dev.RAS.PendingRetirements() {
		pending[f] = true
	}
	sets := b.geom.Sets()
	for _, f := range b.dev.RAS.RetiredFrames() {
		setIdx := f % sets
		way := int(f / sets)
		if way >= b.n {
			continue
		}
		s := b.sets[setIdx]
		if !s.retired[way] {
			if pending[f] {
				continue // failure observed, evacuation still queued
			}
			return fmt.Errorf("core: frame %d (set %d way %d) retired by injector but not quarantined", f, setIdx, way)
		}
		if s.bles[way].mode != bleFree || s.occupant[b.m+way] != -1 {
			return fmt.Errorf("core: retired frame %d (set %d way %d) still allocated: mode=%d occupant=%d",
				f, setIdx, way, s.bles[way].mode, s.occupant[b.m+way])
		}
	}
	return nil
}
