package core

import (
	"math/rand"
	"testing"

	"repro/internal/addr"
	"repro/internal/config"
	"repro/internal/cpu"
	"repro/internal/faults"
)

// scanChecked forwards to a Bumblebee and, after every Access and
// Writeback, compares each set's summaries (free ways, Nc, Na, Nn and
// the cached-way index) with a scan of its BLEs.
type scanChecked struct {
	t   *testing.T
	b   *Bumblebee
	ops int
}

func (m *scanChecked) Access(now uint64, a addr.Addr, write bool) uint64 {
	done := m.b.Access(now, a, write)
	m.check()
	return done
}

func (m *scanChecked) Writeback(now uint64, a addr.Addr) {
	m.b.Writeback(now, a)
	m.check()
}

func (m *scanChecked) check() {
	m.t.Helper()
	m.ops++
	for si, s := range m.b.sets {
		if err := m.b.checkSummaries(s); err != nil {
			m.t.Fatalf("op %d set %d: %v", m.ops, si, err)
		}
	}
}

// TestSetSummariesMatchScan steps seeded runs of every Figure 7 variant
// that changes a movement decision, plus one faulted run, past the
// generators' 65536-access initialization sweep, and holds the per-set
// summaries to a scan of the BLE array after every memory operation.
func TestSetSummariesMatchScan(t *testing.T) {
	fix := func(r float64) func(*config.System) {
		return func(s *config.System) {
			s.Bumblebee.FixedRatio = true
			s.Bumblebee.FixedCacheRatio = r
		}
	}
	variants := []struct {
		name   string
		apply  func(*config.System)
		faults bool
	}{
		{"C-Only", fix(1), false},
		{"M-Only", fix(0), false},
		{"25%-C", fix(0.25), false},
		{"50%-C", fix(0.5), false},
		{"No-Multi", func(s *config.System) { s.Bumblebee.NoMultiplex = true }, false},
		{"No-HMF", func(s *config.System) { s.Bumblebee.NoHMF = true }, false},
		{"Alloc-D", func(s *config.System) { s.Bumblebee.AllocAllDRAM = true }, false},
		{"Alloc-H", func(s *config.System) { s.Bumblebee.AllocAllHBM = true }, false},
		{"Bumblebee", func(s *config.System) {}, false},
		{"Bumblebee+faults", func(s *config.System) {}, true},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			sys := testSys()
			v.apply(&sys)
			if v.faults {
				sys.Faults = config.DefaultFaults()
				sys.Faults.Enabled = true
				sys.Faults.FrameFailPer1M = 200
				sys.Faults.TransientPer1M = 4000
			}
			for _, w := range []struct {
				name string
				run  func(m *scanChecked)
			}{
				{"hotseq", func(m *scanChecked) { runWorkload(m.t, m, hotSeq, 80_000) }},
				{"full", func(m *scanChecked) { fillEverySet(sys, m, 20_000) }},
			} {
				t.Run(w.name, func(t *testing.T) {
					b := newBB(t, sys)
					if v.faults {
						dev := b.Devices()
						dev.AttachFaults(faults.New(sys.Faults, dev.Geom.HBMPages(), 1))
					}
					w.run(&scanChecked{t: t, b: b})
					checkInvariants(t, b)
				})
			}
		})
	}
}

// fillEverySet sends n operations straight to mem, bypassing the
// caches: half at uniformly random addresses of the whole flat address
// space, so every set's DRAM and HBM fill up and the footprint spills
// into the HBM range (HMF's flush, allocation overflow), and half in
// bursts of 16 to one of a few hundred hot pages, so pages in full sets
// heat up past the threshold T and fill their blocks.
func fillEverySet(sys config.System, mem cpu.Memory, n int) {
	rng := rand.New(rand.NewSource(7))
	total := sys.DRAM.CapacityBytes + sys.HBM.CapacityBytes
	hot := make([]uint64, 256)
	for i := range hot {
		hot[i] = rng.Uint64() % total
	}
	var now uint64
	op := func(a addr.Addr) {
		if rng.Intn(8) == 0 {
			mem.Writeback(now, a)
		} else {
			now = mem.Access(now, a, rng.Intn(3) == 0)
		}
	}
	for i := 0; i < n; {
		if rng.Intn(2) == 0 {
			op(addr.Addr(rng.Uint64() % total))
			i++
			continue
		}
		p := hot[rng.Intn(len(hot))]
		for j := 0; j < 16 && i < n; j, i = j+1, i+1 {
			op(addr.Addr(p + uint64(rng.Intn(1<<16))))
		}
	}
}

// TestRareTransitionsKeepSummaries drives the transitions the seeded runs
// above rarely or never reach — the full-set swap, the aliasing
// evacuation of a retired frame and a bare allocation — straight from a
// live controller's state, and holds the summaries to the scan after
// each.
func TestRareTransitionsKeepSummaries(t *testing.T) {
	live := func(t *testing.T) *Bumblebee {
		b := newBB(t, testSys())
		runWorkload(t, b, hotSeq, 100_000)
		return b
	}
	check := func(t *testing.T, b *Bumblebee, s *pset) {
		t.Helper()
		if err := b.checkSummaries(s); err != nil {
			t.Fatal(err)
		}
	}
	// findMHBM returns a set and an mHBM way in it that ok accepts.
	findMHBM := func(t *testing.T, b *Bumblebee, ok func(e *ble) bool) (uint64, *pset, int) {
		t.Helper()
		for si, s := range b.sets {
			for w := range s.bles {
				if e := &s.bles[w]; e.mode == bleMHBM && ok(e) {
					return uint64(si), s, w
				}
			}
		}
		t.Fatal("no matching mHBM way")
		return 0, nil, -1
	}
	anyWay := func(*ble) bool { return true }

	t.Run("swap", func(t *testing.T) {
		b := live(t)
		// A dense cold page makes the swapped-in sparse one change class.
		si, s, w := findMHBM(t, b, func(e *ble) bool { return e.valid.popcount() > b.halfBlocks })
		for slot := 0; slot < b.m; slot++ {
			if o := s.occupant[slot]; o >= 0 && s.newPLE[o] == int16(slot) && !s.aliased[o] {
				b.swapWithColdest(0, si, s, o, int16(slot), 0, hotEntry{orig: s.bles[w].orig})
				if s.bles[w].orig != o {
					t.Fatal("swap did not run")
				}
				check(t, b, s)
				return
			}
		}
		t.Fatal("no DRAM-homed page to swap in")
	})
	t.Run("alias-out", func(t *testing.T) {
		b := live(t)
		si, s, w := findMHBM(t, b, anyWay)
		b.aliasOutRetired(0, si, s, w)
		check(t, b, s)
	})
	t.Run("allocate", func(t *testing.T) {
		sys := testSys()
		sys.Bumblebee.AllocAllHBM = true
		b := newBB(t, sys)
		s := b.sets[0]
		b.allocate(0, 0, s, 0)
		if !b.geom.IsHBMSlot(uint64(s.newPLE[0])) {
			t.Fatal("Alloc-H allocated outside HBM")
		}
		check(t, b, s)
	})
}
