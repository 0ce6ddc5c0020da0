package chameleon

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/config"
)

func newSys(t *testing.T) *System {
	t.Helper()
	s, err := New(config.Default().Scaled(256))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNativeHBMSegmentServedFromHBM(t *testing.T) {
	s := newSys(t)
	sys := config.Default().Scaled(256)
	hbmRangeAddr := addr.Addr(sys.DRAM.CapacityBytes) // first HBM-range page
	s.Access(0, hbmRangeAddr, false)
	if s.Counters().ServedHBM != 1 {
		t.Errorf("native HBM segment served from DRAM: %+v", s.Counters())
	}
}

func TestColdDRAMSegmentStaysInDRAM(t *testing.T) {
	s := newSys(t)
	s.Access(0, 0, false)
	c := s.Counters()
	if c.ServedDRAM != 1 || c.PageSwaps != 0 {
		t.Errorf("counters = %+v", c)
	}
}

func TestHotSegmentSwapsIn(t *testing.T) {
	s := newSys(t)
	var now uint64
	for i := 0; i < swapDelta+3; i++ {
		now = s.Access(now, 0, false)
	}
	c := s.Counters()
	if c.PageSwaps != 1 {
		t.Fatalf("swaps = %d", c.PageSwaps)
	}
	s.Access(now, 0, false)
	if s.Counters().ServedHBM == 0 {
		t.Error("swapped-in segment not served from HBM")
	}
}

func TestSecondSwapKeepsPermutationConsistent(t *testing.T) {
	s := newSys(t)
	g := uint64(len(s.hbmOwner))
	a := addr.Addr(0)                       // member 0 of group 0
	b := addr.Addr(g * s.dev.Geom.PageSize) // member 1 of group 0
	var now uint64
	for i := 0; i < swapDelta+3; i++ {
		now = s.Access(now, a, false)
	}
	now += 10_000_000 // let the movement budget refill
	for i := 0; i < 2*(swapDelta+3)+4; i++ {
		now = s.Access(now, b, false)
	}
	if s.Counters().PageSwaps < 2 {
		t.Fatalf("swaps = %d, want >= 2", s.Counters().PageSwaps)
	}
	// The permutation must remain a bijection.
	loc0 := s.loc[:s.g+1]
	seen := make(map[uint16]bool)
	for m, loc := range loc0 {
		if seen[loc] {
			t.Fatalf("location %d assigned twice (member %d)", loc, m)
		}
		seen[loc] = true
	}
	// b must now be the HBM owner.
	if loc0[1] != uint16(s.g) {
		t.Errorf("member 1 not in HBM after displacing member 0")
	}
	// Serving b hits HBM.
	hbmServes := s.Counters().ServedHBM
	s.Access(now, b, false)
	if s.Counters().ServedHBM != hbmServes+1 {
		t.Error("displacing member not served from HBM")
	}
}

func TestSwapCostsBothBuses(t *testing.T) {
	s := newSys(t)
	var now uint64
	for i := 0; i < swapDelta+3; i++ {
		now = s.Access(now, 0, false)
	}
	hbm := s.Devices().HBM.Stats()
	ddr := s.Devices().DRAM.Stats()
	size := s.dev.Geom.PageSize
	if hbm.ReadBytes < size || hbm.WriteBytes < size {
		t.Errorf("HBM swap traffic %d/%d below page size %d", hbm.ReadBytes, hbm.WriteBytes, size)
	}
	if ddr.WriteBytes < size {
		t.Errorf("DRAM swap write traffic %d below page size %d", ddr.WriteBytes, size)
	}
}

func TestMetadataInHBMCausesTraffic(t *testing.T) {
	s := newSys(t)
	// Distinct groups so the SRAM metadata cache misses.
	var now uint64
	for i := uint64(0); i < 64; i++ {
		now = s.Access(now, addr.Addr(i*s.dev.Geom.PageSize), false)
	}
	if s.Counters().MetaHBM == 0 {
		t.Error("no in-HBM metadata traffic recorded")
	}
}

func TestWritebackFollowsPermutation(t *testing.T) {
	s := newSys(t)
	var now uint64
	for i := 0; i < swapDelta+3; i++ {
		now = s.Access(now, 0, false)
	}
	hbmW := s.Devices().HBM.Stats().WriteBytes
	s.Writeback(now, 0)
	if s.Devices().HBM.Stats().WriteBytes <= hbmW {
		t.Error("writeback of HBM-resident segment missed HBM")
	}
}

func TestName(t *testing.T) {
	if newSys(t).Name() != "chameleon" {
		t.Error("bad name")
	}
}
