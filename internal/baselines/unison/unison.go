// Package unison implements Unison Cache (Jevdjic et al., MICRO 2014):
// the die-stacked HBM is a set-associative page-based DRAM cache whose
// tags are embedded in HBM alongside the data, with per-page footprint
// prediction so that a fill fetches only the blocks the page used during
// its previous residency instead of the whole page.
package unison

import (
	"repro/internal/addr"
	"repro/internal/config"
	"repro/internal/hmm"
	"repro/internal/telemetry"
)

const (
	pageBytes  = 4 * addr.KiB
	blockBytes = 64
	ways       = 4
	blocksPer  = int(pageBytes / blockBytes)
)

type way struct {
	tag     uint64 // DRAM page number cached here
	valid   bool
	lruTick uint64
	present [blocksPer / 64]uint64 // fetched blocks
	dirty   [blocksPer / 64]uint64
	touched [blocksPer / 64]uint64 // accessed during this residency
}

func bit(i uint64) (int, uint64) { return int(i / 64), 1 << (i % 64) }

func (w *way) get(v *[blocksPer / 64]uint64, i uint64) bool {
	idx, m := bit(i)
	return v[idx]&m != 0
}

func (w *way) set(v *[blocksPer / 64]uint64, i uint64) {
	idx, m := bit(i)
	v[idx] |= m
}

// Cache is the Unison Cache design.
type Cache struct {
	dev    *hmm.Devices
	cnt    hmm.Counters
	os     *hmm.OSMem
	frames []way // [set*ways+way]
	tick   uint64

	// footprint history: DRAM page -> touched bitmap of its last
	// residency, driving the next fill's fetch set.
	history map[uint64][blocksPer / 64]uint64
}

var _ hmm.MemSystem = (*Cache)(nil)

// New builds a Unison Cache over the system's devices.
func New(sys config.System) (*Cache, error) {
	dev, err := hmm.NewDevices(sys)
	if err != nil {
		return nil, err
	}
	nsets := dev.Geom.HBMBytes / pageBytes / ways
	return &Cache{
		dev:     dev,
		os:      hmm.NewOSMem(dev.Geom.DRAMBytes, dev.Geom.PageSize, sys.PageFaultNS, sys.Core.FreqMHz),
		frames:  make([]way, nsets*ways),
		history: make(map[uint64][blocksPer / 64]uint64),
	}, nil
}

// Name implements hmm.MemSystem.
func (c *Cache) Name() string { return "unison" }

// Devices implements hmm.MemSystem.
func (c *Cache) Devices() *hmm.Devices { return c.dev }

// Counters implements hmm.MemSystem.
func (c *Cache) Counters() hmm.Counters {
	out := c.cnt
	out.PageFaults = c.os.Faults
	c.dev.AddRAS(&out)
	return out
}

// hbmAddr returns the HBM byte address of block blk of way w in set.
func (c *Cache) hbmAddr(set uint64, w int, blk uint64) addr.Addr {
	return addr.Addr(set*uint64(ways)*pageBytes + uint64(w)*pageBytes + blk*blockBytes)
}

// sets returns the number of sets.
func (c *Cache) sets() uint64 { return uint64(len(c.frames)) / ways }

// row returns the ways of set.
func (c *Cache) row(set uint64) []way { return c.frames[set*ways : (set+1)*ways] }

func (c *Cache) lookup(set uint64, page uint64) int {
	r := c.row(set)
	for i := range r {
		if r[i].valid && r[i].tag == page {
			return i
		}
	}
	return -1
}

func (c *Cache) victim(set uint64) int {
	r := c.row(set)
	v, min := 0, r[0].lruTick
	for i := range r {
		if !r[i].valid {
			return i
		}
		if r[i].lruTick < min {
			v, min = i, r[i].lruTick
		}
	}
	return v
}

// evict writes a victim's dirty blocks back and records its footprint.
func (c *Cache) evict(now uint64, set uint64, wi int) {
	w := &c.row(set)[wi]
	if !w.valid {
		return
	}
	for blk := uint64(0); blk < uint64(blocksPer); blk++ {
		if w.get(&w.dirty, blk) {
			rd := c.dev.HBMAccess(now, c.hbmAddr(set, wi, blk), blockBytes, false)
			c.dev.DRAM.Access(rd, addr.Addr(w.tag*pageBytes+blk*blockBytes), blockBytes, true)
		}
	}
	c.history[w.tag] = w.touched
	c.cnt.Evictions++
	c.dev.Tel.Event(now, telemetry.EvEviction, set, w.tag, 0)
	w.valid = false
}

// fill installs page into way wi, fetching the predicted footprint (the
// page's touched set from its last residency) plus the demand block; a
// first-time page fetches only the demand block and grows on touch.
func (c *Cache) fill(now uint64, set uint64, wi int, page uint64, demand uint64) {
	w := &c.row(set)[wi]
	*w = way{tag: page, valid: true, lruTick: c.tick}
	foot, seen := c.history[page]
	if !seen {
		var only [blocksPer / 64]uint64
		idx, m := bit(demand)
		only[idx] = m
		foot = only
	} else {
		idx, m := bit(demand)
		foot[idx] |= m
	}
	for blk := uint64(0); blk < uint64(blocksPer); blk++ {
		idx, m := bit(blk)
		if foot[idx]&m == 0 {
			continue
		}
		rd := c.dev.DRAM.Access(now, addr.Addr(page*pageBytes+blk*blockBytes), blockBytes, false)
		c.dev.HBMAccess(rd, c.hbmAddr(set, wi, blk), blockBytes, true)
		w.set(&w.present, blk)
		c.cnt.FetchedBytes += blockBytes
	}
	// Tag write into the embedded tag row.
	c.dev.HBMAccess(now, c.hbmAddr(set, wi, 0), 16, true)
	c.cnt.BlockFills++
	c.dev.Tel.Event(now, telemetry.EvMigration, set, page, uint64(wi))
}

// Access implements hmm.MemSystem.
func (c *Cache) Access(now uint64, a addr.Addr, write bool) uint64 {
	done, tier := c.access(now, a, write)
	c.dev.Tel.ObserveAccess(tier, now, done)
	return done
}

// access is the uninstrumented access path; it also reports which tier
// served the demand block.
func (c *Cache) access(now uint64, a addr.Addr, write bool) (uint64, telemetry.Tier) {
	c.cnt.Requests++
	c.tick++
	now = c.os.Admit(now, a)
	da := c.dev.Geom.DRAMLocal(a)
	page := uint64(da) / pageBytes
	blk := (uint64(da) % pageBytes) / blockBytes
	set := page % c.sets()

	// Embedded tags: the lookup itself is an HBM read.
	tagDone := c.dev.HBMAccess(now, c.hbmAddr(set, 0, 0), 64, false)

	wi := c.lookup(set, page)
	if wi >= 0 {
		w := &c.row(set)[wi]
		w.lruTick = c.tick
		if w.get(&w.present, blk) {
			if !w.get(&w.touched, blk) {
				w.set(&w.touched, blk)
				c.cnt.UsedBytes += blockBytes
			}
			c.cnt.ServedHBM++
			if write {
				w.set(&w.dirty, blk)
				return c.dev.HBMAccess(tagDone, c.hbmAddr(set, wi, blk), blockBytes, true), telemetry.TierCHBM
			}
			return c.dev.HBMAccess(tagDone, c.hbmAddr(set, wi, blk), blockBytes, false), telemetry.TierCHBM
		}
		// Footprint under-prediction: fetch the missing block.
		done := c.dev.DRAM.Access(tagDone, addr.Addr(page*pageBytes+blk*blockBytes), blockBytes, write)
		c.dev.HBMAccess(done, c.hbmAddr(set, wi, blk), blockBytes, true)
		w.set(&w.present, blk)
		w.set(&w.touched, blk)
		c.cnt.FetchedBytes += blockBytes
		c.cnt.UsedBytes += blockBytes
		c.cnt.ServedDRAM++
		return done, telemetry.TierDRAM
	}

	// Page miss: serve from DRAM, then install the predicted footprint.
	done := c.dev.DRAM.Access(tagDone, addr.Addr(page*pageBytes+blk*blockBytes), blockBytes, write)
	c.cnt.ServedDRAM++
	vi := c.victim(set)
	c.evict(done, set, vi)
	c.fill(done, set, vi, page, blk)
	w := &c.row(set)[vi]
	w.set(&w.touched, blk)
	c.cnt.UsedBytes += blockBytes
	if write {
		w.set(&w.dirty, blk)
	}
	return done, telemetry.TierDRAM
}

// Writeback implements hmm.MemSystem.
func (c *Cache) Writeback(now uint64, a addr.Addr) {
	c.cnt.Writebacks++
	da := c.dev.Geom.DRAMLocal(a)
	page := uint64(da) / pageBytes
	blk := (uint64(da) % pageBytes) / blockBytes
	set := page % c.sets()
	if wi := c.lookup(set, page); wi >= 0 {
		if w := &c.row(set)[wi]; w.get(&w.present, blk) {
			c.dev.HBMAccess(now, c.hbmAddr(set, wi, blk), blockBytes, true)
			w.set(&w.dirty, blk)
			return
		}
	}
	c.dev.DRAM.Access(now, addr.Addr(page*pageBytes+blk*blockBytes), blockBytes, true)
}
