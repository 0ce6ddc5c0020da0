package addr

import (
	"testing"
	"testing/quick"
)

func mustGeom(t *testing.T) *Geometry {
	t.Helper()
	g, err := NewGeometry(64*KiB, 2*KiB, 10*GiB, 1*GiB, 8)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewGeometryValidation(t *testing.T) {
	cases := []struct {
		name                         string
		page, block, dram, hbm, ways uint64
		ok                           bool
	}{
		{"paper default", 64 * KiB, 2 * KiB, 10 * GiB, 1 * GiB, 8, true},
		{"fig6 96KB pages", 96 * KiB, 2 * KiB, 10 * GiB, 1 * GiB, 8, true},
		{"block not dividing page", 64 * KiB, 3 * KiB, 1 * GiB, 1 * GiB, 8, false},
		{"block larger than page", 4 * KiB, 8 * KiB, 1 * GiB, 1 * GiB, 8, false},
		{"zero block", 64 * KiB, 0, 1 * GiB, 1 * GiB, 8, false},
		{"zero ways", 64 * KiB, 2 * KiB, 1 * GiB, 1 * GiB, 0, false},
		{"hbm too small", 64 * KiB, 2 * KiB, 1 * GiB, 63 * KiB, 8, false},
		{"dram too small", 64 * KiB, 2 * KiB, 63 * KiB, 1 * GiB, 8, false},
		{"small sane", 4 * KiB, 64, 64 * MiB, 8 * MiB, 4, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := NewGeometry(c.page, c.block, c.dram, c.hbm, c.ways)
			if (err == nil) != c.ok {
				t.Fatalf("NewGeometry(%d,%d,%d,%d,%d) error = %v, want ok=%v",
					c.page, c.block, c.dram, c.hbm, c.ways, err, c.ok)
			}
		})
	}
}

func TestGeometryDerived(t *testing.T) {
	g := mustGeom(t)
	if got, want := g.DRAMPages(), uint64(10*GiB/(64*KiB)); got != want {
		t.Errorf("DRAMPages = %d, want %d", got, want)
	}
	if got, want := g.HBMPages(), uint64(1*GiB/(64*KiB)); got != want {
		t.Errorf("HBMPages = %d, want %d", got, want)
	}
	if got, want := g.Sets(), g.HBMPages()/8; got != want {
		t.Errorf("Sets = %d, want %d", got, want)
	}
	if got, want := g.HBMPagesPerSet(), uint64(8); got != want {
		t.Errorf("HBMPagesPerSet = %d, want %d", got, want)
	}
	if got, want := g.DRAMPagesPerSet(), uint64(80); got != want {
		t.Errorf("DRAMPagesPerSet = %d, want %d", got, want)
	}
	if got, want := g.BlocksPerPage(), uint64(32); got != want {
		t.Errorf("BlocksPerPage = %d, want %d", got, want)
	}
	if got, want := g.TotalBytes(), uint64(11*GiB); got != want {
		t.Errorf("TotalBytes = %d, want %d", got, want)
	}
}

func TestPLEBits(t *testing.T) {
	g := mustGeom(t)
	// m+n = 88 pages per set -> ceil(log2 88) = 7 bits.
	if got := g.PLEBits(); got != 7 {
		t.Errorf("PLEBits = %d, want 7", got)
	}
	g2, err := NewGeometry(4*KiB, 64, 4*KiB*2, 4*KiB*2, 2)
	if err != nil {
		t.Fatal(err)
	}
	// m+n = 4 -> 2 bits.
	if got := g2.PLEBits(); got != 2 {
		t.Errorf("PLEBits small = %d, want 2", got)
	}
}

func TestPageBlockDecomposition(t *testing.T) {
	g := mustGeom(t)
	a := Addr(3*64*KiB + 5*2*KiB + 17)
	if got, want := g.PageOf(a), uint64(3); got != want {
		t.Errorf("PageOf = %d, want %d", got, want)
	}
	if got, want := g.BlockInPage(a), uint64(5); got != want {
		t.Errorf("BlockInPage = %d, want %d", got, want)
	}
	if got, want := g.PageBase(a), Addr(3*64*KiB); got != want {
		t.Errorf("PageBase = %d, want %d", got, want)
	}
	if got, want := g.BlockBase(a), Addr(3*64*KiB+5*2*KiB); got != want {
		t.Errorf("BlockBase = %d, want %d", got, want)
	}
	if got, want := g.PageAddr(3), Addr(3*64*KiB); got != want {
		t.Errorf("PageAddr = %d, want %d", got, want)
	}
}

func TestNonPowerOfTwoPageRounding(t *testing.T) {
	g, err := NewGeometry(96*KiB, 2*KiB, 10*GiB, 1*GiB, 8)
	if err != nil {
		t.Fatal(err)
	}
	// 1 GiB / 96 KiB = 10922.67 pages, floored to a multiple of 8.
	if g.HBMPages()%8 != 0 || g.HBMPages() == 0 {
		t.Errorf("HBM pages = %d, want positive multiple of 8", g.HBMPages())
	}
	if g.HBMBytes != g.HBMPages()*96*KiB {
		t.Errorf("HBMBytes %d inconsistent with %d pages", g.HBMBytes, g.HBMPages())
	}
	if g.DRAMPages()%g.Sets() != 0 {
		t.Errorf("DRAM pages %d not a multiple of %d sets", g.DRAMPages(), g.Sets())
	}
	// Decomposition must still round-trip.
	a := Addr(5*96*KiB + 7*2*KiB + 100)
	if g.PageOf(a) != 5 || g.BlockInPage(a) != 7 {
		t.Errorf("decomposition of %d: page %d block %d", a, g.PageOf(a), g.BlockInPage(a))
	}
}

func TestFrameOfSlot(t *testing.T) {
	g := mustGeom(t)
	m := g.DRAMPagesPerSet()
	for _, set := range []uint64{0, 1, g.Sets() - 1} {
		if got, want := g.DRAMFrameOfSlot(set, 3), 3*g.Sets()+set; got != want {
			t.Errorf("DRAMFrameOfSlot(%d,3) = %d, want %d", set, got, want)
		}
		if got, want := g.HBMFrameOfSlot(set, m+2), 2*g.Sets()+set; got != want {
			t.Errorf("HBMFrameOfSlot(%d,m+2) = %d, want %d", set, got, want)
		}
		// Frames must stay within device bounds.
		if g.HBMFrameOfSlot(set, m+g.HBMPagesPerSet()-1) >= g.HBMPages() {
			t.Error("HBM frame out of device range")
		}
	}
}

func TestSlotRoundTrip(t *testing.T) {
	g := mustGeom(t)
	pages := []uint64{0, 1, g.Sets() - 1, g.Sets(), g.DRAMPages() - 1,
		g.DRAMPages(), g.DRAMPages() + 1, g.DRAMPages() + g.HBMPages() - 1}
	for _, p := range pages {
		set := g.SetOf(p)
		slot := g.SlotOf(p)
		if got := g.PageOfSlot(set, slot); got != p {
			t.Errorf("PageOfSlot(SetOf, SlotOf) of %d = %d", p, got)
		}
		if g.IsHBMPage(p) != g.IsHBMSlot(slot) {
			t.Errorf("page %d: IsHBMPage=%v but IsHBMSlot=%v", p, g.IsHBMPage(p), g.IsHBMSlot(slot))
		}
	}
}

func TestSlotRoundTripProperty(t *testing.T) {
	g := mustGeom(t)
	total := g.DRAMPages() + g.HBMPages()
	f := func(raw uint64) bool {
		p := raw % total
		return g.PageOfSlot(g.SetOf(p), g.SlotOf(p)) == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSlotRangeProperty(t *testing.T) {
	g := mustGeom(t)
	total := g.DRAMPages() + g.HBMPages()
	f := func(raw uint64) bool {
		p := raw % total
		slot := g.SlotOf(p)
		if g.IsHBMPage(p) {
			return slot >= g.DRAMPagesPerSet() && slot < g.PagesPerSet()
		}
		return slot < g.DRAMPagesPerSet()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBlockDecompositionProperty(t *testing.T) {
	g := mustGeom(t)
	f := func(raw uint64) bool {
		a := Addr(raw % g.TotalBytes())
		// Block base must be within the page, aligned, and contain a.
		bb := g.BlockBase(a)
		pb := g.PageBase(a)
		return uint64(bb)%g.BlockSize == 0 &&
			bb >= pb && uint64(bb) < uint64(pb)+g.PageSize &&
			a >= bb && uint64(a) < uint64(bb)+g.BlockSize
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestFoldsMatchModulo holds DRAMLocal and FoldPage to a plain modulo
// below, at and past each bound: skipping the divide in range must not
// change a result.
func TestFoldsMatchModulo(t *testing.T) {
	for _, page := range []uint64{64 * KiB, 96 * KiB} {
		g, err := NewGeometry(page, 2*KiB, 10*GiB, 1*GiB, 8)
		if err != nil {
			t.Fatal(err)
		}
		pages := g.DRAMPages() + g.HBMPages()
		for _, tc := range []struct {
			name  string
			bound uint64
			fold  func(uint64) uint64
		}{
			{"DRAMLocal", g.DRAMBytes, func(x uint64) uint64 { return uint64(g.DRAMLocal(Addr(x))) }},
			{"FoldPage", pages, g.FoldPage},
		} {
			for _, x := range []uint64{0, 1, tc.bound - 1, tc.bound, tc.bound + 1, 2*tc.bound + 7, 1<<64 - 1} {
				if got, want := tc.fold(x), x%tc.bound; got != want {
					t.Errorf("page %d: %s(%d) = %d, want %d (bound %d)", page, tc.name, x, got, want, tc.bound)
				}
			}
		}
	}
}
