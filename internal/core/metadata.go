package core

import (
	"fmt"

	"repro/internal/addr"
)

// MetadataBudget reports the SRAM storage each metadata structure needs,
// reproducing the Section IV-B accounting (334 KB total at 2 KB blocks /
// 64 KB pages: PRT + BLE array + hotness tracker, one to two orders of
// magnitude below block-tag or pointer-based designs).
type MetadataBudget struct {
	PRTBytes     uint64
	BLEBytes     uint64
	HotnessBytes uint64
}

// TotalBytes returns the total metadata footprint.
func (m MetadataBudget) TotalBytes() uint64 { return m.PRTBytes + m.BLEBytes + m.HotnessBytes }

// String renders the budget like the paper quotes it, in KB with one
// decimal. A part under 1 KiB, as at scaled sizes, is given in bytes.
func (m MetadataBudget) String() string {
	return fmt.Sprintf("%s total (%s PRT, %s BLE array, %s hotness tracker)",
		kbString(m.TotalBytes()), kbString(m.PRTBytes), kbString(m.BLEBytes), kbString(m.HotnessBytes))
}

// kbString renders n bytes as whole bytes under 1 KiB and as KiB with
// one decimal from there up.
func kbString(n uint64) string {
	if n < addr.KiB {
		return fmt.Sprintf("%dB", n)
	}
	return fmt.Sprintf("%.1fKB", float64(n)/addr.KiB)
}

// counterBits is the width of one hot-table access counter.
const counterBits = 12

// Metadata computes the storage budget for a geometry and hot-table
// depth.
//
//   - PRT: one new-PLE (ceil(log2(m+n)) bits) plus one Occup bit per page
//     slot, per set.
//   - BLE array: one PLE plus a valid and a dirty bit per block, per HBM
//     page.
//   - Hotness tracker: per set, (n + hotDepth) queue entries of one PLE
//     plus a counter, plus the five parameters (Rh, T, Nc, Na, Nn).
func Metadata(g *addr.Geometry, hotDepth int) MetadataBudget {
	pleBits := uint64(g.PLEBits())
	prtBitsPerSet := g.PagesPerSet() * (pleBits + 1)
	bleBitsPerPage := pleBits + 2*g.BlocksPerPage() + 2 // +2 mode bits
	hotBitsPerSet := (g.HBMPagesPerSet()+uint64(hotDepth))*(pleBits+counterBits) + 5*16
	return MetadataBudget{
		PRTBytes:     (g.Sets()*prtBitsPerSet + 7) / 8,
		BLEBytes:     (g.HBMPages()*bleBitsPerPage + 7) / 8,
		HotnessBytes: (g.Sets()*hotBitsPerSet + 7) / 8,
	}
}

// Metadata returns this controller's own metadata budget.
func (b *Bumblebee) Metadata() MetadataBudget {
	return Metadata(b.geom, b.opt.HotQueueDepth)
}

// BaselineMetadata estimates the metadata footprint of the comparison
// designs, for the paper's "1-2 orders of magnitude" claim. All formulas
// follow the cited papers' structures:
//
//   - Alloy Cache: one ~29-bit TAD tag per 64 B HBM line, stored in HBM
//     (returned here as the structure size regardless of placement).
//   - Unison Cache: 4-way page tags plus footprint bits per 4 KB page.
//   - Banshee: page-table mapping entries plus frequency counters.
//   - Hybrid2: 256 B-block tags for the 64 MB cache region plus a
//     pointer-based remap table over 2 KB pages.
//   - Chameleon: one remap entry plus counters per 64 KB set group.
type BaselineMetadata struct {
	AlloyBytes     uint64
	UnisonBytes    uint64
	BansheeBytes   uint64
	Hybrid2Bytes   uint64
	ChameleonBytes uint64
}

// Baselines computes comparison metadata sizes for the HBM/DRAM
// capacities of g.
func Baselines(g *addr.Geometry) BaselineMetadata {
	hbm := g.HBMBytes
	total := g.TotalBytes()
	var bm BaselineMetadata
	// Alloy: 29 tag bits per 64 B line.
	bm.AlloyBytes = hbm / 64 * 29 / 8
	// Unison: per 4 KB page: ~30-bit tag + 64 footprint bits + LRU.
	bm.UnisonBytes = hbm / (4 * addr.KiB) * (30 + 64 + 8) / 8
	// Banshee: per 4 KB HBM page a mapping entry (~4 B) and frequency
	// counters for candidate DRAM pages (~2 B per 4 KB page of DRAM).
	bm.BansheeBytes = hbm/(4*addr.KiB)*4 + (total-hbm)/(4*addr.KiB)*2
	// Hybrid2: 64 MB cache at 256 B blocks with ~4 B tag state each, plus
	// a 4 B remap pointer per 2 KB page across the whole flat address
	// space (its paper reports tens of megabytes).
	cacheRegion := uint64(64 * addr.MiB)
	if cacheRegion > hbm {
		cacheRegion = hbm / 4
	}
	bm.Hybrid2Bytes = cacheRegion/256*4 + total/(2*addr.KiB)*4
	// Chameleon: per 64 KB group a remap entry + counters (~8 B), over
	// the whole flat space.
	bm.ChameleonBytes = total / (64 * addr.KiB) * 8
	return bm
}
