// Package alloy implements Alloy Cache (Qureshi & Loh, MICRO 2012): the
// die-stacked HBM is a direct-mapped DRAM cache of 64 B lines whose tag
// and data are fused into one TAD (tag-and-data) unit, so a hit needs a
// single HBM access and no SRAM tag array exists. The price is the
// direct-mapped conflict rate and zero OS-visible HBM capacity.
package alloy

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/config"
	"repro/internal/hmm"
	"repro/internal/telemetry"
)

// tadBytes is the size of one TAD unit: 64 B data + 8 B tag/state, padded
// to the 72 B the paper streams per access (we charge 72 B on the bus).
const tadBytes = 72

// A TAD's tag and state is one word: the quotient tag lineNo/len(tads)
// above the valid and dirty bits. The TAD's index supplies the rest of
// the line number, so the cached line is quotient*len(tads)+index.
const (
	tadValid = 1 << 0
	tadDirty = 1 << 1
	tadShift = 2
	// maxQuotient is the largest quotient tag a 32-bit TAD word holds.
	maxQuotient = 1<<(32-tadShift) - 1
)

// Cache is the Alloy Cache design.
type Cache struct {
	dev  *hmm.Devices
	cnt  hmm.Counters
	os   *hmm.OSMem
	tads []uint32
}

var _ hmm.MemSystem = (*Cache)(nil)

// New builds an Alloy Cache over the system's devices. It refuses a
// geometry whose largest DRAM line quotient does not fit a TAD word.
func New(sys config.System) (*Cache, error) {
	dev, err := hmm.NewDevices(sys)
	if err != nil {
		return nil, err
	}
	n := dev.Geom.HBMBytes / tadBytes
	dramLines := dev.Geom.DRAMBytes / 64
	if (dramLines-1)/n > maxQuotient {
		return nil, fmt.Errorf("alloy: %d B of DRAM over %d B of HBM (%d TADs) needs quotient tags above %d",
			dev.Geom.DRAMBytes, dev.Geom.HBMBytes, n, maxQuotient)
	}
	return &Cache{
		dev:  dev,
		os:   hmm.NewOSMem(dev.Geom.DRAMBytes, dev.Geom.PageSize, sys.PageFaultNS, sys.Core.FreqMHz),
		tads: make([]uint32, n),
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

// slot returns the direct-mapped TAD index, its HBM byte address and
// the valid TAD word that holds lineNo, dirty bit clear.
func (c *Cache) slot(lineNo uint64) (idx uint64, hbmAddr addr.Addr, want uint32) {
	n := uint64(len(c.tads))
	idx = lineNo % n
	return idx, addr.Addr(idx * tadBytes), uint32(lineNo/n)<<tadShift | tadValid
}

// holds reports whether TAD word w caches the line whose valid, clean
// word is want.
func holds(w, want uint32) bool { return w&^tadDirty == want }

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
	idx, hbmAddr, want := c.slot(lineNo)
	t := &c.tads[idx]

	// One TAD read returns tag and data together.
	tagDone := c.dev.HBMAccess(now, hbmAddr, tadBytes, false)
	if holds(*t, want) {
		c.cnt.ServedHBM++
		if write {
			*t |= tadDirty
			return c.dev.HBMAccess(tagDone, hbmAddr, 64, true), telemetry.TierCHBM
		}
		return tagDone, telemetry.TierCHBM
	}

	// Miss: fetch from DRAM (serialized after the tag probe, the
	// design's documented miss penalty), then install the TAD.
	done := c.dev.DRAM.Access(tagDone, addr.Addr(lineNo*64), 64, write)
	c.cnt.ServedDRAM++
	if *t&(tadValid|tadDirty) == tadValid|tadDirty {
		// Victim data arrived with the TAD read; write it back.
		victim := c.lineOf(idx, *t)
		c.dev.DRAM.Access(done, addr.Addr(victim*64), 64, true)
		c.cnt.Evictions++
		c.dev.Tel.Event(now, telemetry.EvEviction, idx, victim, 0)
	}
	c.dev.HBMAccess(done, hbmAddr, tadBytes, true)
	c.cnt.BlockFills++
	// Alloy fetches exactly the demanded 64 B, so a fill is always used.
	c.cnt.FetchedBytes += 64
	c.cnt.UsedBytes += 64
	*t = want
	if write {
		*t |= tadDirty
	}
	return done, telemetry.TierDRAM
}

// lineOf returns the DRAM line number TAD word w at index idx holds.
func (c *Cache) lineOf(idx uint64, w uint32) uint64 {
	return uint64(w>>tadShift)*uint64(len(c.tads)) + idx
}

// Writeback implements hmm.MemSystem.
func (c *Cache) Writeback(now uint64, a addr.Addr) {
	c.cnt.Writebacks++
	da := c.dev.Geom.DRAMLocal(a)
	lineNo := uint64(da) / 64
	idx, hbmAddr, want := c.slot(lineNo)
	if t := &c.tads[idx]; holds(*t, want) {
		c.dev.HBMAccess(now, hbmAddr, tadBytes, true)
		*t |= tadDirty
		return
	}
	c.dev.DRAM.Access(now, addr.Addr(lineNo*64), 64, true)
}
