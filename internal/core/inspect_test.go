package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/addr"
	"repro/internal/hmm"
)

// findWayInMode returns the first (set, way) whose BLE is in mode, or
// (nil, -1).
func findWayInMode(b *Bumblebee, mode bleMode) (*pset, int) {
	for _, s := range b.sets {
		for w := range s.bles {
			if s.bles[w].mode == mode {
				return s, w
			}
		}
	}
	return nil, -1
}

// freeCachedWay drops the first cHBM page it finds, as an allocation
// needing its frame would, and returns the now free way; a long hot
// workload leaves no way free on its own.
func freeCachedWay(t *testing.T, b *Bumblebee) (*pset, int) {
	t.Helper()
	for si, s := range b.sets {
		for w := range s.bles {
			if s.bles[w].mode == bleCached {
				b.dropCachedWay(0, uint64(si), s, w)
				return s, w
			}
		}
	}
	t.Fatal("workload produced no cached way")
	return nil, -1
}

// TestCheckInvariantsCatchesSkippedInvalidate corrupts a live controller
// the way a buggy eviction would — freeing a BLE without invalidating its
// valid/dirty bits — and requires CheckInvariants to catch it. This is
// the mutation-detection guarantee the lockstep checker builds on.
func TestCheckInvariantsCatchesSkippedInvalidate(t *testing.T) {
	b := newBB(t, testSys())
	runWorkload(t, b, hotSeq, 60_000)
	if err := b.CheckInvariants(); err != nil {
		t.Fatalf("healthy controller reports violation: %v", err)
	}

	s, w := findWayInMode(b, bleCached)
	if w < 0 {
		t.Fatal("workload produced no cached way to corrupt")
	}
	// Skip the invalidate: mode goes free but the bit vectors stay set.
	saved := s.bles[w]
	s.bles[w].mode = bleFree
	s.bles[w].orig = -1
	err := b.CheckInvariants()
	if err == nil {
		t.Fatal("skipped BLE invalidate not caught")
	}
	if !strings.Contains(err.Error(), "stale") && !strings.Contains(err.Error(), "hot HBM entry") {
		t.Fatalf("unexpected violation for skipped invalidate: %v", err)
	}
	s.bles[w] = saved
	if err := b.CheckInvariants(); err != nil {
		t.Fatalf("restore failed: %v", err)
	}
}

// TestCheckInvariantsCatchesOccupancyDesync clears the occupant bit under
// a live mHBM page — the PRT↔occupancy desync class — then gives a free
// way an occupant, the "allocated into HBM but never touched" state no
// path produces: the BLE mode is the only record of a frame's use, so
// CheckInvariants must report that occupant against the way itself.
func TestCheckInvariantsCatchesOccupancyDesync(t *testing.T) {
	b := newBB(t, testSys())
	runWorkload(t, b, hotSeq, 60_000)

	s, w := findWayInMode(b, bleMHBM)
	if w < 0 {
		t.Fatal("workload produced no mHBM way to corrupt")
	}
	slot := int16(b.m + w)
	saved := s.occupant[slot]
	s.occupant[slot] = -1
	if err := b.CheckInvariants(); err == nil {
		t.Fatal("occupancy desync not caught")
	}
	s.occupant[slot] = saved
	if err := b.CheckInvariants(); err != nil {
		t.Fatalf("restore failed: %v", err)
	}

	s, w = freeCachedWay(t, b)
	if err := b.CheckInvariants(); err != nil {
		t.Fatalf("healthy controller reports violation: %v", err)
	}
	slot = int16(b.m + w)
	s.occupant[slot] = 0
	err := b.CheckInvariants()
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("way %d: occupant 0", w)) {
		t.Fatalf("occupied free way not caught: %v", err)
	}
	s.occupant[slot] = -1
	if err := b.CheckInvariants(); err != nil {
		t.Fatalf("restore failed: %v", err)
	}
}

// TestCheckInvariantsCatchesSummaryDesync skews a set's kept summaries
// away from its BLEs — the free way count, a dropped cached-way index
// entry, then one naming a way past the set — and requires
// CheckInvariants to report each as an error rather than panic.
func TestCheckInvariantsCatchesSummaryDesync(t *testing.T) {
	b := newBB(t, testSys())
	runWorkload(t, b, hotSeq, 60_000)
	s, w := findWayInMode(b, bleCached)
	if w < 0 {
		t.Fatal("workload produced no cached way")
	}
	s.classes[classFree]++
	if err := b.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "summaries") {
		t.Fatalf("skewed free way count not caught: %v", err)
	}
	s.classes[classFree]--
	o := s.bles[w].orig
	s.cachedWay[o] = -1
	if err := b.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "cached-way index") {
		t.Fatalf("dropped cached-way entry not caught: %v", err)
	}
	s.cachedWay[o] = int16(w)
	u := -1
	for p, cw := range s.cachedWay {
		if cw < 0 {
			u = p
			break
		}
	}
	if u < 0 {
		t.Fatal("every page of the set is cached")
	}
	s.cachedWay[u] = int16(len(s.bles))
	if err := b.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "outside the set") {
		t.Fatalf("out-of-range cached-way entry not caught: %v", err)
	}
	s.cachedWay[u] = -1
	if err := b.CheckInvariants(); err != nil {
		t.Fatalf("restore failed: %v", err)
	}
}

// TestCheckInvariantsCatchesHBMHomeMismatch points a DRAM-homed page's
// newPLE at an HBM way that does not hold it, one cHBM and one free, and
// releases its DRAM slot as a move would: CheckInvariants must report
// the home against the way, not only via the occupant table (which
// aliasing can excuse).
func TestCheckInvariantsCatchesHBMHomeMismatch(t *testing.T) {
	b := newBB(t, testSys())
	runWorkload(t, b, hotSeq, 60_000)
	for _, mode := range []bleMode{bleCached, bleFree} {
		s, w := findWayInMode(b, mode)
		if mode == bleFree {
			s, w = freeCachedWay(t, b)
		}
		if w < 0 {
			t.Fatalf("workload left no way in mode %d", mode)
		}
		o, home := int16(-1), int16(-1)
		for p, slot := range s.newPLE {
			if slot >= 0 && slot < int16(b.m) && s.occupant[slot] == int16(p) &&
				s.findCachedWay(int16(p)) < 0 && s.hot.hbm.find(int16(p)) < 0 {
				o, home = int16(p), slot
				break
			}
		}
		if o < 0 {
			t.Fatal("no uncached DRAM-homed page in the set")
		}
		s.newPLE[o] = int16(b.m + w)
		s.occupant[home] = -1
		err := b.CheckInvariants()
		want := fmt.Sprintf("newPLE[%d]=%d but that way holds mode %d", o, b.m+w, mode)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("page homed in a mode-%d way not caught: %v", mode, err)
		}
		s.newPLE[o], s.occupant[home] = home, o
		if err := b.CheckInvariants(); err != nil {
			t.Fatalf("restore failed: %v", err)
		}
	}
}

// TestInspectAgreesWithLocate cross-checks the two read-only views: a
// line can only be served from HBM if its page is HBM-homed or has a
// cache copy, and InspectAddr must be side-effect free.
func TestInspectAgreesWithLocate(t *testing.T) {
	b := newBB(t, testSys())
	runWorkload(t, b, hotScatter, 60_000)

	if g := b.InspectGranularity(); g != b.geom.PageSize {
		t.Fatalf("granularity %d, want page size %d", g, b.geom.PageSize)
	}
	pages := b.geom.DRAMPages() + b.geom.HBMPages()
	for p := uint64(0); p < pages; p += 7 {
		a := b.geom.PageAddr(p)
		before := b.Counters()
		info := b.InspectAddr(a)
		tier := b.LocateLine(a)
		if b.Counters() != before {
			t.Fatalf("page %d: inspection mutated counters", p)
		}
		if info.Page != p {
			t.Fatalf("page %d: canonical id %d", p, info.Page)
		}
		switch {
		case !info.Allocated:
			if tier != hmm.TierNone {
				t.Fatalf("page %d: unallocated but LocateLine=%v", p, tier)
			}
		case info.Home == hmm.TierHBM:
			if tier != hmm.TierHBM {
				t.Fatalf("page %d: HBM-homed but LocateLine=%v", p, tier)
			}
		default:
			if tier == hmm.TierHBM && !info.HasCache {
				t.Fatalf("page %d: DRAM-homed, uncached, but LocateLine=hbm", p)
			}
		}
		// A cached copy never coincides with an HBM home claim.
		if info.HasCache && info.Home != hmm.TierDRAM {
			t.Fatalf("page %d: cache copy on a non-DRAM-homed page", p)
		}
	}
}

// TestCheckInvariantsCatchesDuplicateHotEntry gives a page a second HBM
// hot-queue entry. touchHBMPage relies on every resident page having at
// most one, so that a resident page missing from the queue finds room.
func TestCheckInvariantsCatchesDuplicateHotEntry(t *testing.T) {
	b := newBB(t, testSys())
	runWorkload(t, b, hotSeq, 60_000)
	for _, s := range b.sets {
		q := &s.hot.hbm
		if q.len() == 0 || q.full() {
			continue
		}
		saved := append([]hotEntry(nil), q.entries...)
		q.push(q.entries[0])
		err := b.CheckInvariants()
		if err == nil || !strings.Contains(err.Error(), "two hot HBM entries") {
			t.Fatalf("duplicate hot HBM entry not caught: %v", err)
		}
		q.entries = append(q.entries[:0], saved...)
		if err := b.CheckInvariants(); err != nil {
			t.Fatalf("restore failed: %v", err)
		}
		return
	}
	t.Fatal("workload left no set with a partly full HBM queue")
}

// roomChecked runs a controller and, after every operation, requires
// each HBM-resident page missing from its set's HBM queue to find room
// there, counting how often one is missing.
type roomChecked struct {
	t       *testing.T
	b       *Bumblebee
	missing int
}

func (m *roomChecked) Access(now uint64, a addr.Addr, write bool) uint64 {
	done := m.b.Access(now, a, write)
	m.check()
	return done
}

func (m *roomChecked) Writeback(now uint64, a addr.Addr) {
	m.b.Writeback(now, a)
	m.check()
}

func (m *roomChecked) check() {
	m.t.Helper()
	for si, s := range m.b.sets {
		for w := range s.bles {
			e := &s.bles[w]
			if e.mode == bleFree || s.hot.hbm.find(e.orig) >= 0 {
				continue
			}
			m.missing++
			if s.hot.hbm.full() {
				m.t.Fatalf("set %d: resident page %d is missing from a full HBM queue", si, e.orig)
			}
		}
	}
}

// TestTouchHBMPageNeverPops pins why touchHBMPage returns the count it
// pushed: with one, two and eight HBM ways per set, after every
// operation of a workload that fills every set, each HBM-resident page
// missing from its set's HBM queue would find room there. With one way
// no page goes missing in this workload, so the count is over all three.
func TestTouchHBMPageNeverPops(t *testing.T) {
	missing := 0
	for _, ways := range []uint64{1, 2, 8} {
		sys := testSys()
		sys.HBMWays = ways
		m := &roomChecked{t: t, b: newBB(t, sys)}
		fillEverySet(sys, m, 20_000)
		checkInvariants(t, m.b)
		missing += m.missing
	}
	if missing == 0 {
		t.Error("no resident page was ever missing from its HBM queue")
	}
}
