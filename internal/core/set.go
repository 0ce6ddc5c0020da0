package core

// bleMode is the state of one HBM page frame in a remapping set.
type bleMode uint8

const (
	bleFree   bleMode = iota // frame holds nothing
	bleCached                // frame is a cHBM page (cache of a DRAM-homed page)
	bleMHBM                  // frame is an mHBM page (OS-visible home of a page)
)

// ble is one Block Location Entry (Figure 3a): which original page the
// frame holds (its PLE), whether the frame is cHBM or mHBM, and the
// per-block valid and dirty bit vectors. For cHBM pages the valid vector
// marks cached blocks; for mHBM pages it records accessed blocks to
// evaluate spatial locality.
type ble struct {
	mode  bleMode
	orig  int16 // original slot index of the resident/cached page
	valid bitvec
	dirty bitvec
	// shadow is the DRAM slot still holding a stale copy of an mHBM
	// page's data (its home before the migration or mode switch), or -1.
	// While a shadow exists, demoting the page back to cHBM needs no
	// data movement and its eventual eviction writes only dirty blocks —
	// the multiplexed-space benefit ("the mode switch process moves only
	// necessary data"). Shadows are reclaimed when the OS needs the DRAM
	// slot.
	shadow int16
}

// pset is one remapping set: the PRT rows for its m+n page slots, the n
// BLEs of its HBM frames, and its hotness tracker.
type pset struct {
	// newPLE[orig] is the slot where the page originally assigned to
	// `orig` actually lives; -1 means not yet allocated (the paper's
	// "new PLE" column).
	newPLE []int16
	// occupant[slot] is the original slot of the page whose home is
	// `slot`; -1 means the page space is unoccupied (the Occup bit).
	// cHBM copies do not occupy page space.
	occupant []int16

	bles []ble // indexed by HBM way (slot - m)

	// retired marks HBM frames permanently failed by the RAS fault
	// injector. A retired way is evacuated once (see retireFrame) and
	// then excluded from every allocation path; retiredCount shrinks the
	// set's effective HBM capacity for the Rh full-occupancy checks.
	retired      []bool
	retiredCount int

	// aliased marks pages that could not be given a frame (set full at
	// allocation): they share another page's frame and every access pays
	// an OS paging penalty.
	aliased []bool

	hot hotTable

	// cHBMOff latches after an HMF(5) batched flush: the set stops using
	// HBM frames as cHBM to keep them available as OS-visible memory.
	cHBMOff bool

	// recentAlloc is a small ring of recently allocated original slots,
	// used by the hotness-based allocation policy (Section III-D).
	recentAlloc []int16
	raNext      int

	// Zombie detection (HMF rule 3): the identity and counter of the HBM
	// queue's head the last time we looked, and for how many set accesses
	// it has been unchanged.
	zombieOrig  int16
	zombieCount uint32
	zombieStale uint32

	// Summaries of the BLE array, kept current by Bumblebee.recount:
	// classes[c] counts the ways of class c, so classes[classCached],
	// classes[classDense] and classes[classSparse] are Equation 1's Nc,
	// Na and Nn, and the ways not in classFree are the numerator of the
	// HBM occupied ratio Rh; cachedWay[orig] is the way caching page
	// orig, or -1; tally[w] is what way w contributes to them.
	classes   [numClasses]int
	cachedWay []int16
	tally     []wayTally
}

// wayClass is the frame-mode and spatial-locality class of one HBM way.
type wayClass uint8

const (
	classFree   wayClass = iota // frame holds no page (retired frames included)
	classCached                 // cHBM page: counted in Nc
	classDense                  // mHBM page with most blocks accessed: Na
	classSparse                 // mHBM page without: Nn
	numClasses
)

// wayTally is one way's contribution to its set's summaries.
type wayTally struct {
	class  wayClass
	cached int16 // the page the way caches (classCached), else -1
}

func newPset(m, n, blocksPerPage, hotDepth, recentAllocDepth int) *pset {
	s := &pset{
		newPLE:      make([]int16, m+n),
		occupant:    make([]int16, m+n),
		aliased:     make([]bool, m+n),
		retired:     make([]bool, n),
		bles:        make([]ble, n),
		hot:         newHotTable(n, hotDepth),
		recentAlloc: make([]int16, recentAllocDepth),
		zombieOrig:  -1,
		cachedWay:   make([]int16, m+n),
		tally:       make([]wayTally, n),
	}
	for i := range s.newPLE {
		s.newPLE[i] = -1
		s.occupant[i] = -1
		s.cachedWay[i] = -1
	}
	for i := range s.bles {
		s.bles[i] = ble{
			orig:   -1,
			valid:  newBitvec(blocksPerPage),
			dirty:  newBitvec(blocksPerPage),
			shadow: -1,
		}
		s.tally[i] = wayTally{class: classFree, cached: -1}
	}
	s.classes[classFree] = n
	for i := range s.recentAlloc {
		s.recentAlloc[i] = -1
	}
	return s
}

// findCachedWay returns the HBM way caching original page orig, or -1.
func (s *pset) findCachedWay(orig int16) int { return int(s.cachedWay[orig]) }

// recount brings set s's summaries up to date with way w. It is the one
// place they change, and it must run after every change to the way's
// BLE mode, orig or valid bits. A cHBM way's class does not depend on
// its valid bits, so block fills into a cached page need no recount.
func (b *Bumblebee) recount(s *pset, w int) {
	e := &s.bles[w]
	t := wayTally{class: classFree, cached: -1}
	switch e.mode {
	case bleCached:
		t.class, t.cached = classCached, e.orig
	case bleMHBM:
		t.class = classSparse
		if e.valid.popcount() > b.halfBlocks {
			t.class = classDense
		}
	}
	old := s.tally[w]
	if t == old {
		return
	}
	s.classes[old.class]--
	s.classes[t.class]++
	if old.cached >= 0 {
		s.cachedWay[old.cached] = -1
	}
	if t.cached >= 0 {
		s.cachedWay[t.cached] = int16(w)
	}
	s.tally[w] = t
}

// wayOfSlot converts an HBM slot index to a way index given m.
func wayOfSlot(slot int16, m int) int { return int(slot) - m }

// freeHBMWay returns a way whose frame holds nothing, restricted to
// [lo, hi); -1 if none. The BLE mode alone says whether a frame is in
// use: a free way's page space is never occupied (CheckInvariants
// asserts it). Retired frames are never free: this is the single gate
// through which every allocation path (cacheNewPage, migrateToMHBM,
// allocate) obtains an HBM frame, so skipping them here guarantees a
// retired frame is never re-allocated.
func (s *pset) freeHBMWay(lo, hi int) int {
	for w := lo; w < hi; w++ {
		if s.bles[w].mode == bleFree && !s.retired[w] {
			return w
		}
	}
	return -1
}

// freeDRAMSlot returns an unoccupied DRAM slot, or -1.
func (s *pset) freeDRAMSlot(m int) int16 {
	for slot := 0; slot < m; slot++ {
		if s.occupant[slot] == -1 {
			return int16(slot)
		}
	}
	return -1
}

// reclaimShadow frees one shadow DRAM slot (dropping the stale copy that
// would have made a future demotion cheap) and returns it, or -1 when no
// shadows exist.
func (s *pset) reclaimShadow(m int) int16 {
	for w := range s.bles {
		if s.bles[w].mode == bleMHBM && s.bles[w].shadow >= 0 {
			slot := s.bles[w].shadow
			s.bles[w].shadow = -1
			s.occupant[slot] = -1
			// Without a shadow, every block of the page lives only in
			// HBM: a later demotion must treat them all as dirty.
			return slot
		}
	}
	return -1
}

// countFreeHBM counts free, non-retired HBM frames. A retired frame is
// always free (CheckInvariants asserts it), so they are the free ways
// less the retired ones.
func (s *pset) countFreeHBM() int { return s.classes[classFree] - s.retiredCount }

// fullHBM reports whether the set's HBM occupied ratio Rh is full. Its
// denominator is the ways not retired, so a degraded set behaves like a
// smaller set rather than never reaching pressure thresholds.
func (s *pset) fullHBM() bool { return s.countFreeHBM() <= 0 }

// localityCounts returns (Nc, Na, Nn): the number of cHBM pages, mHBM
// pages with most blocks accessed, and mHBM pages without, for the
// spatial-locality degree SL = Na - Nn - Nc (Equation 1).
func (s *pset) localityCounts() (nc, na, nn int) {
	return s.classes[classCached], s.classes[classDense], s.classes[classSparse]
}

// noteAlloc records orig in the recent-allocation ring.
func (s *pset) noteAlloc(orig int16) {
	s.recentAlloc[s.raNext] = orig
	s.raNext = (s.raNext + 1) % len(s.recentAlloc)
}

// recentAllocHot reports whether any recently allocated page still sits
// in the hot table queue for HBM pages (Section III-D's condition) with
// an access count that proves actual heat. A bare presence test would be
// trivially true — a page enters the queue the moment its first block is
// cached — and would pull every allocation into HBM regardless of the
// workload's locality.
func (s *pset) recentAllocHot() bool {
	for _, ra := range s.recentAlloc {
		if ra >= 0 && s.hot.hbm.count(ra) >= 2 {
			return true
		}
	}
	return false
}
