// Package addr provides address arithmetic shared by every memory model in
// the repository: physical addresses, block and page decomposition, and
// remapping-set geometry.
//
// All addresses are byte addresses in a flat physical address space that
// covers off-chip DRAM followed by die-stacked HBM (the paper's Figure 2
// "flat address space"). Page sizes need not be powers of two — the
// paper's Figure 6 design-space sweep includes 96 KB pages — so all
// decomposition is division-based. Block sizes must divide the page size.
package addr

import "fmt"

// Addr is a physical byte address.
type Addr uint64

// Common sizes, in bytes.
const (
	B   = 1
	KiB = 1 << 10
	MiB = 1 << 20
	GiB = 1 << 30
)

// Geometry describes the page/block decomposition of the flat address
// space and the remapping-set layout used by set-associative designs.
//
// Each remapping set contains DRAMPagesPerSet off-chip DRAM pages followed
// by HBMPagesPerSet HBM pages (the paper's "m" and "n"). Pages are
// assigned to sets by interleaving page indexes, so consecutive pages land
// in consecutive sets, spreading hot regions across sets.
//
// Capacities that do not divide evenly into pages and sets are rounded
// down to whole pages per set; the handful of bytes lost is irrelevant to
// the simulation and mirrors how real controllers reserve slack.
type Geometry struct {
	PageSize  uint64 // bytes per page (migration granularity)
	BlockSize uint64 // bytes per block (caching granularity)

	DRAMBytes uint64 // usable off-chip DRAM capacity (whole pages)
	HBMBytes  uint64 // usable die-stacked HBM capacity (whole pages)

	dramPages uint64
	hbmPages  uint64

	sets           uint64
	dramPagePerSet uint64 // m
	hbmPagePerSet  uint64 // n
}

// NewGeometry validates the sizes and derives the set layout. hbmWays is
// the number of HBM pages per remapping set (the paper uses 8-way
// associativity for both cHBM and mHBM).
func NewGeometry(pageSize, blockSize, dramBytes, hbmBytes uint64, hbmWays uint64) (*Geometry, error) {
	switch {
	case blockSize == 0:
		return nil, fmt.Errorf("addr: block size must be positive")
	case pageSize == 0 || pageSize%blockSize != 0:
		return nil, fmt.Errorf("addr: page size %d is not a positive multiple of block size %d", pageSize, blockSize)
	case hbmWays == 0:
		return nil, fmt.Errorf("addr: HBM ways must be positive")
	}
	g := &Geometry{PageSize: pageSize, BlockSize: blockSize}
	g.hbmPages = hbmBytes / pageSize
	g.hbmPages -= g.hbmPages % hbmWays
	if g.hbmPages == 0 {
		return nil, fmt.Errorf("addr: HBM capacity %d holds no complete %d-way set of %d-byte pages", hbmBytes, hbmWays, pageSize)
	}
	g.sets = g.hbmPages / hbmWays
	g.hbmPagePerSet = hbmWays
	g.dramPages = dramBytes / pageSize
	g.dramPages -= g.dramPages % g.sets
	if g.dramPages == 0 {
		return nil, fmt.Errorf("addr: DRAM capacity %d holds no complete set row of %d-byte pages across %d sets", dramBytes, pageSize, g.sets)
	}
	g.dramPagePerSet = g.dramPages / g.sets
	g.DRAMBytes = g.dramPages * pageSize
	g.HBMBytes = g.hbmPages * pageSize
	return g, nil
}

// TotalBytes is the size of the flat OS-visible address space when all HBM
// serves as mHBM (DRAM + HBM).
func (g *Geometry) TotalBytes() uint64 { return g.DRAMBytes + g.HBMBytes }

// DRAMPages returns the number of off-chip DRAM pages.
func (g *Geometry) DRAMPages() uint64 { return g.dramPages }

// HBMPages returns the number of HBM pages.
func (g *Geometry) HBMPages() uint64 { return g.hbmPages }

// Sets returns the number of remapping sets.
func (g *Geometry) Sets() uint64 { return g.sets }

// DRAMPagesPerSet returns m, the off-chip DRAM pages per remapping set.
func (g *Geometry) DRAMPagesPerSet() uint64 { return g.dramPagePerSet }

// HBMPagesPerSet returns n, the HBM pages per remapping set.
func (g *Geometry) HBMPagesPerSet() uint64 { return g.hbmPagePerSet }

// PagesPerSet returns m+n, the total page slots in a remapping set.
func (g *Geometry) PagesPerSet() uint64 { return g.dramPagePerSet + g.hbmPagePerSet }

// BlocksPerPage returns the number of blocks in one page.
func (g *Geometry) BlocksPerPage() uint64 { return g.PageSize / g.BlockSize }

// PageOf returns the global page number containing a.
func (g *Geometry) PageOf(a Addr) uint64 { return uint64(a) / g.PageSize }

// BlockOf returns the global block number containing a.
func (g *Geometry) BlockOf(a Addr) uint64 { return uint64(a) / g.BlockSize }

// BlockInPage returns the block index of a within its page.
func (g *Geometry) BlockInPage(a Addr) uint64 {
	return (uint64(a) % g.PageSize) / g.BlockSize
}

// PageOffset returns a's byte offset within its page.
func (g *Geometry) PageOffset(a Addr) uint64 { return uint64(a) % g.PageSize }

// PageBase returns the first address of a's page.
func (g *Geometry) PageBase(a Addr) Addr {
	return Addr(uint64(a) - uint64(a)%g.PageSize)
}

// BlockBase returns the first address of a's block.
func (g *Geometry) BlockBase(a Addr) Addr {
	return Addr(uint64(a) - uint64(a)%g.BlockSize)
}

// FoldPage folds global page p into the flat address space's
// DRAMPages+HBMPages pages. Only a malformed trace reaches past the end,
// so a page in range is returned without a divide.
func (g *Geometry) FoldPage(p uint64) uint64 {
	if total := g.dramPages + g.hbmPages; p >= total {
		return p % total
	}
	return p
}

// DRAMLocal folds a into off-chip DRAM's DRAMBytes, the whole address
// space of a design that keeps all OS memory off-chip. An address in range
// is returned without a divide.
func (g *Geometry) DRAMLocal(a Addr) Addr {
	if uint64(a) >= g.DRAMBytes {
		return Addr(uint64(a) % g.DRAMBytes)
	}
	return a
}

// PageAddr returns the first address of global page p.
func (g *Geometry) PageAddr(p uint64) Addr { return Addr(p * g.PageSize) }

// SetOf returns the remapping set holding page p. Pages are interleaved
// across sets by their low-order page bits.
func (g *Geometry) SetOf(p uint64) uint64 { return p % g.sets }

// SlotOf converts global page p to its slot index inside its remapping
// set: DRAM pages occupy slots [0, m) ordered by page number, HBM pages
// occupy slots [m, m+n).
func (g *Geometry) SlotOf(p uint64) uint64 {
	if p < g.dramPages {
		return p / g.sets
	}
	return g.dramPagePerSet + (p-g.dramPages)/g.sets
}

// PageOfSlot is the inverse of SlotOf: it returns the global page number of
// slot in set.
func (g *Geometry) PageOfSlot(set, slot uint64) uint64 {
	if slot < g.dramPagePerSet {
		return slot*g.sets + set
	}
	return g.dramPages + (slot-g.dramPagePerSet)*g.sets + set
}

// DRAMFrameOfSlot returns the DRAM page-frame index backing a DRAM slot.
func (g *Geometry) DRAMFrameOfSlot(set, slot uint64) uint64 {
	return slot*g.sets + set
}

// HBMFrameOfSlot returns the HBM page-frame index backing an HBM slot
// (slot in [m, m+n)).
func (g *Geometry) HBMFrameOfSlot(set, slot uint64) uint64 {
	return (slot-g.dramPagePerSet)*g.sets + set
}

// IsHBMPage reports whether global page p lies in the HBM portion of the
// flat address space.
func (g *Geometry) IsHBMPage(p uint64) bool { return p >= g.dramPages }

// IsHBMSlot reports whether slot (within a set) is an HBM page slot.
func (g *Geometry) IsHBMSlot(slot uint64) bool { return slot >= g.dramPagePerSet }

// PLEBits returns the number of bits one Page Location Entry needs:
// ceil(log2(m+n)), per the paper's Section III-B.
func (g *Geometry) PLEBits() uint {
	total := g.PagesPerSet()
	bits := uint(0)
	for v := total - 1; v > 0; v >>= 1 {
		bits++
	}
	if bits == 0 {
		bits = 1
	}
	return bits
}
