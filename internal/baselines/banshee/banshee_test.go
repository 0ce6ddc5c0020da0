package banshee

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/config"
)

func newCache(t *testing.T) *Cache {
	t.Helper()
	c, err := New(config.Default().Scaled(256))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestColdPageNotImmediatelyPromoted(t *testing.T) {
	c := newCache(t)
	c.Access(0, 0, false)
	if c.Counters().PageMigrations != 0 {
		t.Error("single access promoted a page (threshold ignored)")
	}
	if c.Counters().ServedDRAM != 1 {
		t.Errorf("counters = %+v", c.Counters())
	}
}

func TestHotPagePromotedWholePage(t *testing.T) {
	c := newCache(t)
	var now uint64
	for i := 0; i < promoteDelta+2; i++ {
		now = c.Access(now, 0, false)
	}
	cnt := c.Counters()
	if cnt.PageMigrations != 1 {
		t.Fatalf("migrations = %d after %d accesses", cnt.PageMigrations, promoteDelta+2)
	}
	if cnt.FetchedBytes != pageBytes {
		t.Errorf("fetched = %d, want whole page %d", cnt.FetchedBytes, pageBytes)
	}
	// Subsequent access hits HBM.
	c.Access(now, 0, false)
	if c.Counters().ServedHBM == 0 {
		t.Error("promoted page not served from HBM")
	}
}

func TestNoTagProbeTraffic(t *testing.T) {
	// Banshee's mapping is in SRAM: a DRAM-resident access must generate
	// zero HBM traffic.
	c := newCache(t)
	c.Access(0, 0, false)
	if got := c.Devices().HBM.Stats().TotalBytes(); got != 0 {
		t.Errorf("cold access generated %d bytes of HBM traffic", got)
	}
}

func TestVictimNeedsHigherFrequency(t *testing.T) {
	c := newCache(t)
	nsets := c.sets()
	var now uint64
	// Fill all 4 ways of set 0 with hot pages (counter ~12).
	for w := uint64(0); w < ways; w++ {
		a := addr.Addr(w * nsets * pageBytes)
		for i := 0; i < 12; i++ {
			now = c.Access(now, a, false)
		}
	}
	mig := c.Counters().PageMigrations
	if mig != ways {
		t.Fatalf("expected %d promotions, got %d", ways, mig)
	}
	// A rival with fewer accesses than resident+delta must not displace.
	rival := addr.Addr(ways * nsets * pageBytes)
	for i := 0; i < 3; i++ {
		now = c.Access(now, rival, false)
	}
	if c.Counters().PageMigrations != mig {
		t.Error("cold rival displaced hot resident")
	}
	// Hammer the rival: eventually its counter beats the coldest resident.
	for i := 0; i < 40; i++ {
		now = c.Access(now, rival, false)
	}
	if c.Counters().PageMigrations == mig {
		t.Error("hot rival never promoted")
	}
	if c.Counters().Evictions == 0 {
		t.Error("promotion into a full set did not evict")
	}
}

func TestWritebackRouting(t *testing.T) {
	c := newCache(t)
	var now uint64
	for i := 0; i < promoteDelta+2; i++ {
		now = c.Access(now, 0, false)
	}
	hbmW := c.Devices().HBM.Stats().WriteBytes
	c.Writeback(now, 0)
	if c.Devices().HBM.Stats().WriteBytes <= hbmW {
		t.Error("resident writeback missed HBM")
	}
	dramW := c.Devices().DRAM.Stats().WriteBytes
	c.Writeback(now, addr.Addr(9*addr.MiB))
	if c.Devices().DRAM.Stats().WriteBytes <= dramW {
		t.Error("absent writeback missed DRAM")
	}
}

func TestDirtyEvictionWritesWholePage(t *testing.T) {
	c := newCache(t)
	nsets := c.sets()
	var now uint64
	for i := 0; i < promoteDelta+2; i++ {
		now = c.Access(now, 0, true)
	}
	c.Writeback(now, 0) // mark resident page dirty
	// Fill remaining ways, then displace page 0 with a hotter rival.
	for w := uint64(1); w < ways; w++ {
		a := addr.Addr(w * nsets * pageBytes)
		for i := 0; i < 30; i++ {
			now = c.Access(now, a, false)
		}
	}
	dramW := c.Devices().DRAM.Stats().WriteBytes
	rival := addr.Addr(ways * nsets * pageBytes)
	for i := 0; i < 60; i++ {
		now = c.Access(now, rival, false)
	}
	if c.Counters().Evictions == 0 {
		t.Fatal("no eviction")
	}
	if got := c.Devices().DRAM.Stats().WriteBytes - dramW; got < pageBytes {
		t.Errorf("dirty page eviction wrote %d bytes, want >= %d", got, pageBytes)
	}
}

func TestName(t *testing.T) {
	if newCache(t).Name() != "banshee" {
		t.Error("bad name")
	}
}
