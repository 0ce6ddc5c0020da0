package core

// hotEntry is one hot-table queue entry: a page (identified by its
// original slot index in the remapping set) and its access counter.
type hotEntry struct {
	orig  int16
	count uint32
}

// hotQueue is an LRU counter queue (Figure 4): index 0 is the LRU end,
// the last element is the MRU end. Each remapping set has two — one for
// HBM-resident pages and one for recently accessed off-chip DRAM pages.
type hotQueue struct {
	entries []hotEntry
	cap     int
}

func newHotQueue(capacity int) hotQueue {
	return hotQueue{entries: make([]hotEntry, 0, capacity), cap: capacity}
}

// find returns the index of orig, or -1.
func (q *hotQueue) find(orig int16) int {
	for i := range q.entries {
		if q.entries[i].orig == orig {
			return i
		}
	}
	return -1
}

// len returns the number of entries.
func (q *hotQueue) len() int { return len(q.entries) }

// full reports whether a push would exceed capacity.
func (q *hotQueue) full() bool { return len(q.entries) >= q.cap }

// touch increments orig's access counter and moves it to the MRU end; it
// returns the new count and whether the entry was present. Counting
// every access (the paper's "counter to record the access number") lets
// a page in the middle of a sequential burst quickly pass the threshold
// T, so streams can cache themselves mid-run; the movement-bandwidth
// budget bounds how much data such bursts may move.
func (q *hotQueue) touch(orig int16) (uint32, bool) {
	i := q.find(orig)
	if i < 0 {
		return 0, false
	}
	q.entries[i].count++
	e := q.entries[i]
	if i != len(q.entries)-1 {
		copy(q.entries[i:], q.entries[i+1:])
		q.entries[len(q.entries)-1] = e
	}
	return e.count, true
}

// push inserts an entry at the MRU end. If the queue is full, the LRU
// entry is popped out first and returned.
func (q *hotQueue) push(e hotEntry) (popped hotEntry, didPop bool) {
	if q.full() && len(q.entries) > 0 {
		popped, didPop = q.entries[0], true
		copy(q.entries, q.entries[1:])
		q.entries = q.entries[:len(q.entries)-1]
	}
	q.entries = append(q.entries, e)
	return popped, didPop
}

// remove deletes orig's entry and returns it.
func (q *hotQueue) remove(orig int16) (hotEntry, bool) {
	i := q.find(orig)
	if i < 0 {
		return hotEntry{}, false
	}
	e := q.entries[i]
	copy(q.entries[i:], q.entries[i+1:])
	q.entries = q.entries[:len(q.entries)-1]
	return e, true
}

// lru returns the LRU entry without removing it.
func (q *hotQueue) lru() (hotEntry, bool) {
	if len(q.entries) == 0 {
		return hotEntry{}, false
	}
	return q.entries[0], true
}

// popLRU removes and returns the LRU entry.
func (q *hotQueue) popLRU() (hotEntry, bool) {
	if len(q.entries) == 0 {
		return hotEntry{}, false
	}
	e := q.entries[0]
	copy(q.entries, q.entries[1:])
	q.entries = q.entries[:len(q.entries)-1]
	return e, true
}

// minCount returns the smallest counter in the queue — the paper's
// hotness threshold T ("the smallest hotness value of HBM pages in each
// set"). An empty queue yields 0, admitting everything.
func (q *hotQueue) minCount() uint32 {
	var min uint32
	for i, e := range q.entries {
		if i == 0 || e.count < min {
			min = e.count
		}
	}
	return min
}

// count returns orig's counter, or 0 when absent.
func (q *hotQueue) count(orig int16) uint32 {
	if i := q.find(orig); i >= 0 {
		return q.entries[i].count
	}
	return 0
}

// halve ages every counter; periodic decay keeps the threshold T tied to
// *recent* hotness so that pages hot in a past phase cannot squat in HBM
// forever (the counters are a few bits wide in hardware and must be aged
// anyway to avoid saturation).
func (q *hotQueue) halve() {
	for i := range q.entries {
		q.entries[i].count /= 2
	}
}

// hotTable is the per-set hotness tracker: the two LRU counter queues of
// Figure 4. Of its five parameters, Rh, Nc, Na and Nn are kept as state
// in the pset beside the BLE array (classes, updated by
// Bumblebee.recount; Rh's denominator is the ways not retired), and T is
// the HBM queue's minCount, read only when Rh is full.
type hotTable struct {
	hbm  hotQueue // all HBM-resident pages (cHBM and mHBM)
	dram hotQueue // recently accessed off-chip DRAM pages

	accesses uint64 // set accesses since the last decay epoch
}

func newHotTable(hbmCap, dramCap int) hotTable {
	return hotTable{hbm: newHotQueue(hbmCap), dram: newHotQueue(dramCap)}
}

// decayEvery is the aging epoch in set accesses.
const decayEvery = 8192

// tick advances the decay epoch clock.
func (t *hotTable) tick() {
	t.accesses++
	if t.accesses%decayEvery == 0 {
		t.hbm.halve()
		t.dram.halve()
	}
}
