// Package alloy implements Alloy Cache (Qureshi & Loh, MICRO 2012): the
// die-stacked HBM is a direct-mapped DRAM cache of 64 B lines whose tag
// and data are fused into one TAD (tag-and-data) unit, so a hit needs a
// single HBM access and no SRAM tag array exists. The price is the
// direct-mapped conflict rate and zero OS-visible HBM capacity.
package alloy

import (
	"repro/internal/addr"
	"repro/internal/config"
	"repro/internal/hmm"
	"repro/internal/telemetry"
)

// tadBytes is the size of one TAD unit: 64 B data + 8 B tag/state, padded
// to the 72 B the paper streams per access (we charge 72 B on the bus).
const tadBytes = 72

type line struct {
	tag   uint64 // DRAM line number cached here
	valid bool
	dirty bool
}

// Cache is the Alloy Cache design.
type Cache struct {
	dev   *hmm.Devices
	cnt   hmm.Counters
	os    *hmm.OSMem
	lines []line
}

var _ hmm.MemSystem = (*Cache)(nil)

// New builds an Alloy Cache over the system's devices.
func New(sys config.System) (*Cache, error) {
	dev, err := hmm.NewDevices(sys)
	if err != nil {
		return nil, err
	}
	n := dev.Geom.HBMBytes / tadBytes
	return &Cache{
		dev:   dev,
		os:    hmm.NewOSMem(dev.Geom.DRAMBytes, dev.Geom.PageSize, sys.PageFaultNS, sys.Core.FreqMHz),
		lines: make([]line, n),
	}, nil
}

// Name implements hmm.MemSystem.
func (c *Cache) Name() string { return "alloy" }

// Devices implements hmm.MemSystem.
func (c *Cache) Devices() *hmm.Devices { return c.dev }

// Counters implements hmm.MemSystem.
func (c *Cache) Counters() hmm.Counters {
	out := c.cnt
	out.PageFaults = c.os.Faults
	c.dev.AddRAS(&out)
	return out
}

// slot returns the direct-mapped TAD index and its HBM byte address.
func (c *Cache) slot(lineNo uint64) (idx uint64, hbmAddr addr.Addr) {
	idx = lineNo % uint64(len(c.lines))
	return idx, addr.Addr(idx * tadBytes)
}

// Access implements hmm.MemSystem.
func (c *Cache) Access(now uint64, a addr.Addr, write bool) uint64 {
	done, tier := c.access(now, a, write)
	c.dev.Tel.ObserveAccess(tier, now, done)
	return done
}

// access is the uninstrumented access path; it also reports which tier
// served the demand line.
func (c *Cache) access(now uint64, a addr.Addr, write bool) (uint64, telemetry.Tier) {
	c.cnt.Requests++
	now = c.os.Admit(now, a)
	da := c.dev.Geom.DRAMLocal(a)
	lineNo := uint64(da) / 64
	idx, hbmAddr := c.slot(lineNo)
	l := &c.lines[idx]

	// One TAD read returns tag and data together.
	tagDone := c.dev.HBMAccess(now, hbmAddr, tadBytes, false)
	if l.valid && l.tag == lineNo {
		c.cnt.ServedHBM++
		if write {
			l.dirty = true
			return c.dev.HBMAccess(tagDone, hbmAddr, 64, true), telemetry.TierCHBM
		}
		return tagDone, telemetry.TierCHBM
	}

	// Miss: fetch from DRAM (serialized after the tag probe, the
	// design's documented miss penalty), then install the TAD.
	done := c.dev.DRAM.Access(tagDone, addr.Addr(lineNo*64), 64, write)
	c.cnt.ServedDRAM++
	if l.valid && l.dirty {
		// Victim data arrived with the TAD read; write it back.
		c.dev.DRAM.Access(done, addr.Addr(l.tag*64), 64, true)
		c.cnt.Evictions++
		c.dev.Tel.Event(now, telemetry.EvEviction, idx, l.tag, 0)
	}
	c.dev.HBMAccess(done, hbmAddr, tadBytes, true)
	c.cnt.BlockFills++
	// Alloy fetches exactly the demanded 64 B, so a fill is always used.
	c.cnt.FetchedBytes += 64
	c.cnt.UsedBytes += 64
	*l = line{tag: lineNo, valid: true, dirty: write}
	return done, telemetry.TierDRAM
}

// Writeback implements hmm.MemSystem.
func (c *Cache) Writeback(now uint64, a addr.Addr) {
	c.cnt.Writebacks++
	da := c.dev.Geom.DRAMLocal(a)
	lineNo := uint64(da) / 64
	idx, hbmAddr := c.slot(lineNo)
	l := &c.lines[idx]
	if l.valid && l.tag == lineNo {
		c.dev.HBMAccess(now, hbmAddr, tadBytes, true)
		l.dirty = true
		return
	}
	c.dev.DRAM.Access(now, addr.Addr(lineNo*64), 64, true)
}
