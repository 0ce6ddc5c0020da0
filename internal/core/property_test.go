package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/addr"
	"repro/internal/trace"
)

// refQueue is an obviously-correct reference model of hotQueue used for
// model-based testing.
type refQueue struct {
	entries []hotEntry
	cap     int
}

func (q *refQueue) find(o int16) int {
	for i, e := range q.entries {
		if e.orig == o {
			return i
		}
	}
	return -1
}

func (q *refQueue) touch(o int16) (uint32, bool) {
	i := q.find(o)
	if i < 0 {
		return 0, false
	}
	q.entries[i].count++
	e := q.entries[i]
	q.entries = append(append(append([]hotEntry{}, q.entries[:i]...), q.entries[i+1:]...), e)
	return e.count, true
}

func (q *refQueue) push(e hotEntry) (hotEntry, bool) {
	var popped hotEntry
	var did bool
	if len(q.entries) >= q.cap && len(q.entries) > 0 {
		popped, did = q.entries[0], true
		q.entries = q.entries[1:]
	}
	q.entries = append(q.entries, e)
	return popped, did
}

func (q *refQueue) remove(o int16) (hotEntry, bool) {
	i := q.find(o)
	if i < 0 {
		return hotEntry{}, false
	}
	e := q.entries[i]
	q.entries = append(q.entries[:i], q.entries[i+1:]...)
	return e, true
}

func (q *refQueue) popLRU() (hotEntry, bool) {
	if len(q.entries) == 0 {
		return hotEntry{}, false
	}
	e := q.entries[0]
	q.entries = q.entries[1:]
	return e, true
}

// TestHotQueueModelBased drives the real queue and the reference model
// with the same random operation sequence and requires identical state
// after every step.
func TestHotQueueModelBased(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		capacity := 1 + rng.Intn(8)
		q := newHotQueue(capacity)
		ref := &refQueue{cap: capacity}
		for step := 0; step < 400; step++ {
			o := int16(rng.Intn(12))
			switch rng.Intn(4) {
			case 0:
				n1, g1 := q.touch(o)
				n2, g2 := ref.touch(o)
				if g1 != g2 || n1 != n2 {
					t.Fatalf("trial %d step %d: touch(%d) = %d/%v, ref %d/%v", trial, step, o, n1, g1, n2, g2)
				}
			case 1:
				e := hotEntry{orig: o, count: uint32(rng.Intn(100))}
				// Queues never hold duplicates in the controller; skip
				// pushes of present entries like the controller does.
				if q.find(o) >= 0 {
					continue
				}
				p1, d1 := q.push(e)
				p2, d2 := ref.push(e)
				if d1 != d2 || (d1 && p1 != p2) {
					t.Fatalf("trial %d step %d: push popped %+v/%v, ref %+v/%v",
						trial, step, p1, d1, p2, d2)
				}
			case 2:
				e1, ok1 := q.remove(o)
				e2, ok2 := ref.remove(o)
				if ok1 != ok2 || (ok1 && e1 != e2) {
					t.Fatalf("trial %d step %d: remove mismatch", trial, step)
				}
			case 3:
				e1, ok1 := q.popLRU()
				e2, ok2 := ref.popLRU()
				if ok1 != ok2 || (ok1 && e1 != e2) {
					t.Fatalf("trial %d step %d: popLRU mismatch", trial, step)
				}
			}
			if len(q.entries) != len(ref.entries) {
				t.Fatalf("trial %d step %d: len %d vs ref %d", trial, step, len(q.entries), len(ref.entries))
			}
			for i := range q.entries {
				if q.entries[i] != ref.entries[i] {
					t.Fatalf("trial %d step %d: entry %d = %+v, ref %+v",
						trial, step, i, q.entries[i], ref.entries[i])
				}
			}
		}
	}
}

// TestBitvecMatchesMapModel checks bitvec against a map-of-bools model.
func TestBitvecMatchesMapModel(t *testing.T) {
	f := func(ops []uint16) bool {
		const n = 200
		v := newBitvec(n)
		ref := map[uint64]bool{}
		for _, op := range ops {
			idx := uint64(op) % n
			switch (op / n) % 2 {
			case 0:
				v.set(idx)
				ref[idx] = true
			case 1:
				if idx%16 == 0 {
					v.reset()
					ref = map[uint64]bool{}
				}
			}
		}
		if v.popcount() != len(ref) {
			return false
		}
		for i := uint64(0); i < n; i++ {
			if v.get(i) != ref[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestRandomizedInvariants runs random access/writeback mixes straight at
// the controller (bypassing the cache hierarchy for op density) and
// checks the structural invariants repeatedly.
func TestRandomizedInvariants(t *testing.T) {
	for _, opts := range []struct {
		name string
		mut  func(*pcfg)
	}{
		{"adaptive", func(c *pcfg) {}},
		{"nohmf", func(c *pcfg) { c.noHMF = true }},
		{"fixed50", func(c *pcfg) { c.fixed = true; c.ratio = 0.5 }},
		{"nomulti", func(c *pcfg) { c.noMulti = true }},
		{"allocH", func(c *pcfg) { c.allocH = true }},
	} {
		opts := opts
		t.Run(opts.name, func(t *testing.T) {
			cfg := &pcfg{}
			opts.mut(cfg)
			sys := testSys()
			sys.Bumblebee.NoHMF = cfg.noHMF
			sys.Bumblebee.FixedRatio = cfg.fixed
			sys.Bumblebee.FixedCacheRatio = cfg.ratio
			sys.Bumblebee.NoMultiplex = cfg.noMulti
			sys.Bumblebee.AllocAllHBM = cfg.allocH
			b := newBB(t, sys)
			rng := rand.New(rand.NewSource(7))
			total := sys.DRAM.CapacityBytes + sys.HBM.CapacityBytes
			var now uint64
			for i := 0; i < 120000; i++ {
				a := addr.Addr(rng.Uint64() % total)
				if rng.Intn(8) == 0 {
					b.Writeback(now, a)
				} else {
					now = b.Access(now, a, rng.Intn(3) == 0)
				}
				if i%20000 == 19999 {
					checkInvariants(t, b)
				}
			}
			checkInvariants(t, b)
		})
	}
}

type pcfg struct {
	noHMF, fixed, noMulti, allocH bool
	ratio                         float64
}

// TestShadowConsistency: a shadow slot must always point back at the
// mHBM page that owns it, and no slot may be the shadow of two pages.
func TestShadowConsistency(t *testing.T) {
	b := newBB(t, testSys())
	runWorkload(t, b, hotSeq, 300000)
	for si, s := range b.sets {
		seen := map[int16]bool{}
		for w := range s.bles {
			e := &s.bles[w]
			if e.mode != bleMHBM || e.shadow < 0 {
				continue
			}
			if seen[e.shadow] {
				t.Fatalf("set %d: slot %d is the shadow of two pages", si, e.shadow)
			}
			seen[e.shadow] = true
			if s.occupant[e.shadow] != e.orig {
				t.Fatalf("set %d: shadow slot %d occupant %d != owner %d",
					si, e.shadow, s.occupant[e.shadow], e.orig)
			}
		}
	}
}

// TestDeterministicReplay: the same workload on two fresh controllers
// produces identical counters — the whole simulator is deterministic.
func TestDeterministicReplay(t *testing.T) {
	run := func() (c1 interface{}, ipc float64) {
		b := newBB(t, testSys())
		res := runWorkload(t, b, coldStream, 150000)
		return b.Counters(), res.IPC()
	}
	a1, i1 := run()
	a2, i2 := run()
	if a1 != a2 {
		t.Errorf("counters diverge:\n%+v\n%+v", a1, a2)
	}
	if i1 != i2 {
		t.Errorf("IPC diverges: %f vs %f", i1, i2)
	}
}

// TestLimitZero guards the trace edge case of a zero-length stream.
func TestLimitZero(t *testing.T) {
	g, err := trace.NewSynthetic(hotSeq)
	if err != nil {
		t.Fatal(err)
	}
	l := &trace.Limit{S: g, N: 0}
	if _, ok := l.Next(); ok {
		t.Error("zero-length limit yielded an access")
	}
}
