// Package banshee implements Banshee (Yu et al., MICRO 2017): a
// page-based DRAM cache whose page mapping lives in SRAM page-table-like
// structures (no in-HBM tag probes) and whose replacement is
// frequency-based with a promotion threshold, so pages are only brought
// into HBM — a whole page at a time — once their access counter beats the
// incumbent's, saving fill bandwidth on low-reuse data.
package banshee

import (
	"repro/internal/addr"
	"repro/internal/config"
	"repro/internal/hmm"
	"repro/internal/telemetry"
)

const (
	pageBytes = 4 * addr.KiB
	ways      = 4
	// promoteDelta is how much hotter a candidate must be than the
	// coldest resident page before it replaces it.
	promoteDelta = 2
	// counter decay keeps frequencies fresh.
	decayEvery = 1 << 14
)

type way struct {
	tag   uint64
	valid bool
	dirty bool
	count uint32
	used  [pageBytes / 64 / 64]uint64 // 64 B words touched (over-fetch)
}

// Cache is the Banshee design.
type Cache struct {
	dev    *hmm.Devices
	cnt    hmm.Counters
	os     *hmm.OSMem
	mover  *hmm.Mover
	frames []way // [set*ways+way]

	// freq tracks access counters of non-resident candidate pages
	// (Banshee samples these; we count exactly).
	freq  map[uint64]uint32
	ticks uint64
	sram  uint64 // SRAM mapping-lookup latency in cycles
}

var _ hmm.MemSystem = (*Cache)(nil)

// New builds a Banshee cache over the system's devices.
func New(sys config.System) (*Cache, error) {
	dev, err := hmm.NewDevices(sys)
	if err != nil {
		return nil, err
	}
	nsets := dev.Geom.HBMBytes / pageBytes / ways
	c := &Cache{
		dev:    dev,
		os:     hmm.NewOSMem(dev.Geom.DRAMBytes, dev.Geom.PageSize, sys.PageFaultNS, sys.Core.FreqMHz),
		frames: make([]way, nsets*ways),
		freq:   make(map[uint64]uint32),
	}
	c.sram = uint64(sys.SRAMMetaNS * float64(sys.Core.FreqMHz) / 1e3)
	if c.sram == 0 {
		c.sram = 1
	}
	dramBPC := sys.DRAM.PeakBandwidthGBs() * 1e9 / (float64(sys.Core.FreqMHz) * 1e6)
	c.mover = hmm.NewMover(0.5 * dramBPC)
	return c, nil
}

// Name implements hmm.MemSystem.
func (c *Cache) Name() string { return "banshee" }

// Devices implements hmm.MemSystem.
func (c *Cache) Devices() *hmm.Devices { return c.dev }

// Counters implements hmm.MemSystem.
func (c *Cache) Counters() hmm.Counters {
	out := c.cnt
	out.PageFaults = c.os.Faults
	c.dev.AddRAS(&out)
	return out
}

func (c *Cache) hbmAddr(set uint64, w int, off uint64) addr.Addr {
	return addr.Addr(set*uint64(ways)*pageBytes + uint64(w)*pageBytes + off)
}

// sets returns the number of sets.
func (c *Cache) sets() uint64 { return uint64(len(c.frames)) / ways }

// row returns the ways of set.
func (c *Cache) row(set uint64) []way { return c.frames[set*ways : (set+1)*ways] }

func (c *Cache) lookup(set, page uint64) int {
	r := c.row(set)
	for i := range r {
		if r[i].valid && r[i].tag == page {
			return i
		}
	}
	return -1
}

func (c *Cache) decay() {
	c.ticks++
	if c.ticks%decayEvery != 0 {
		return
	}
	for k, v := range c.freq {
		if v <= 1 {
			delete(c.freq, k)
		} else {
			c.freq[k] = v / 2
		}
	}
	for i := range c.frames {
		c.frames[i].count /= 2
	}
}

// maybePromote replaces the set's coldest page with the candidate when
// the candidate's frequency exceeds the incumbent's by the threshold.
func (c *Cache) maybePromote(now uint64, set, page uint64) {
	f := c.freq[page]
	vi, min := -1, uint32(0)
	r := c.row(set)
	for i := range r {
		w := &r[i]
		if !w.valid {
			vi, min = i, 0
			break
		}
		if vi == -1 || w.count < min {
			vi, min = i, w.count
		}
	}
	// A candidate must beat the incumbent's frequency (an empty way
	// counts as frequency zero) by the threshold before the page-sized
	// fill is worth its bandwidth.
	if vi == -1 || f < min+promoteDelta {
		return
	}
	if !c.mover.TryStart(now, 2*pageBytes) {
		return // movement engine saturated
	}
	v := &r[vi]
	if v.valid {
		if v.dirty {
			rd := c.dev.HBMAccess(now, c.hbmAddr(set, vi, 0), pageBytes, false)
			c.dev.DRAM.Access(rd, addr.Addr(v.tag*pageBytes), pageBytes, true)
		}
		c.freq[v.tag] = v.count
		c.cnt.Evictions++
		c.dev.Tel.Event(now, telemetry.EvEviction, set, v.tag, 0)
	}
	// Whole-page fill.
	rd := c.dev.DRAM.Access(now, addr.Addr(page*pageBytes), pageBytes, false)
	c.dev.HBMAccess(rd, c.hbmAddr(set, vi, 0), pageBytes, true)
	*v = way{tag: page, valid: true, count: f}
	delete(c.freq, page)
	c.cnt.PageMigrations++
	c.cnt.FetchedBytes += pageBytes
	c.dev.Tel.Event(now, telemetry.EvMigration, set, page, uint64(vi))
}

// Access implements hmm.MemSystem.
func (c *Cache) Access(now uint64, a addr.Addr, write bool) uint64 {
	t0 := now
	c.cnt.Requests++
	c.decay()
	now = c.os.Admit(now, a)
	da := c.dev.Geom.DRAMLocal(a)
	page := uint64(da) / pageBytes
	off := uint64(da) % pageBytes
	set := page % c.sets()

	// Mapping lives in SRAM: no tag-probe traffic.
	start := now + c.sram

	if wi := c.lookup(set, page); wi >= 0 {
		w := &c.row(set)[wi]
		w.count++
		word := off / 64
		if w.used[word/64]&(1<<(word%64)) == 0 {
			w.used[word/64] |= 1 << (word % 64)
			c.cnt.UsedBytes += 64
		}
		c.cnt.ServedHBM++
		done := c.dev.HBMAccess(start, c.hbmAddr(set, wi, off&^63), 64, write)
		c.dev.Tel.ObserveAccess(telemetry.TierCHBM, t0, done)
		return done
	}

	done := c.dev.DRAM.Access(start, addr.Addr(page*pageBytes+off&^63), 64, write)
	c.cnt.ServedDRAM++
	c.freq[page]++
	c.maybePromote(now, set, page)
	c.dev.Tel.ObserveAccess(telemetry.TierDRAM, t0, done)
	return done
}

// Writeback implements hmm.MemSystem.
func (c *Cache) Writeback(now uint64, a addr.Addr) {
	c.cnt.Writebacks++
	da := c.dev.Geom.DRAMLocal(a)
	page := uint64(da) / pageBytes
	off := uint64(da) % pageBytes
	set := page % c.sets()
	if wi := c.lookup(set, page); wi >= 0 {
		c.row(set)[wi].dirty = true
		c.dev.HBMAccess(now, c.hbmAddr(set, wi, off&^63), 64, true)
		return
	}
	c.dev.DRAM.Access(now, addr.Addr(page*pageBytes+off&^63), 64, true)
}
