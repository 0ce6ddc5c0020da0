package hybrid2

import (
	"strings"
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

func TestCacheRegionIsSixteenth(t *testing.T) {
	sys := config.Default().Scaled(256)
	s, err := New(sys)
	if err != nil {
		t.Fatal(err)
	}
	if s.cacheBytes != sys.HBM.CapacityBytes/16 {
		t.Errorf("cache region = %d, want %d", s.cacheBytes, sys.HBM.CapacityBytes/16)
	}
}

func TestBlockFillOnMiss(t *testing.T) {
	s := newSys(t)
	now := s.Access(0, 0, false)
	c := s.Counters()
	if c.ServedDRAM != 1 || c.BlockFills != 1 {
		t.Fatalf("cold access = %+v", c)
	}
	if c.FetchedBytes != blockBytes {
		t.Errorf("fetched %d, want one %d-byte block", c.FetchedBytes, blockBytes)
	}
	s.Access(now, 0, false)
	if s.Counters().ServedHBM != 1 {
		t.Errorf("cached block not served from HBM: %+v", s.Counters())
	}
}

func TestPromotionToPOMAfterThreshold(t *testing.T) {
	s := newSys(t)
	var now uint64
	// migrateAt misses on different blocks of the same page (block-miss
	// accesses keep counting heat).
	for i := 0; i < migrateAt; i++ {
		now = s.Access(now, addr.Addr(uint64(i%blocksPer)*blockBytes), false)
	}
	c := s.Counters()
	if c.PageMigrations != 1 {
		t.Fatalf("migrations = %d after %d heat", c.PageMigrations, migrateAt)
	}
	// Page now lives in POM: next access served by HBM, cache copy gone.
	hbmBefore := c.ServedHBM
	s.Access(now, 0, false)
	if s.Counters().ServedHBM != hbmBefore+1 {
		t.Error("promoted page not served from POM")
	}
}

func TestPromotionIntoFullSetEvictsVictim(t *testing.T) {
	s := newSys(t)
	n := s.geom.HBMPagesPerSet()
	setStride := s.geom.Sets() * pageBytes
	var now uint64
	// Promote n+1 pages of set 0.
	for p := uint64(0); p <= n; p++ {
		base := addr.Addr(p * setStride)
		for i := 0; i < migrateAt; i++ {
			now = s.Access(now, base+addr.Addr(uint64(i%blocksPer)*blockBytes), false)
		}
	}
	c := s.Counters()
	if c.PageMigrations < n {
		t.Fatalf("migrations = %d, want >= %d", c.PageMigrations, n)
	}
	if c.Evictions == 0 {
		t.Error("promotion into a full POM set never evicted a victim to DRAM")
	}
}

func TestHBMRangePagesLiveInPOM(t *testing.T) {
	s := newSys(t)
	sys := config.Default().Scaled(256)
	a := addr.Addr(sys.DRAM.CapacityBytes) // first page past DRAM
	s.Access(0, a, false)
	if s.Counters().ServedHBM != 1 {
		t.Errorf("HBM-range page served from DRAM: %+v", s.Counters())
	}
}

func TestMetadataTrafficInHBM(t *testing.T) {
	s := newSys(t)
	var now uint64
	for i := uint64(0); i < 128; i++ {
		now = s.Access(now, addr.Addr(i*pageBytes*7), false)
	}
	if s.Counters().MetaHBM == 0 {
		t.Error("metadata never touched HBM")
	}
}

func TestCacheEvictionWritesDirty(t *testing.T) {
	s := newSys(t)
	now := s.Access(0, 0, true)
	s.Writeback(now, 0) // dirty the cached block
	dramW := s.Devices().DRAM.Stats().WriteBytes
	// Conflict-fill the cache set of page 0 with other pages mapping to
	// the same cache set.
	stride := s.cacheSets() * pageBytes
	for i := uint64(1); i <= cacheWays; i++ {
		now = s.Access(now, addr.Addr(i*stride), false)
	}
	if s.Devices().DRAM.Stats().WriteBytes <= dramW {
		t.Error("dirty cache eviction never wrote DRAM")
	}
}

func TestWritebackRouting(t *testing.T) {
	s := newSys(t)
	now := s.Access(0, 0, false)
	hbmW := s.Devices().HBM.Stats().WriteBytes
	s.Writeback(now, 0)
	if s.Devices().HBM.Stats().WriteBytes <= hbmW {
		t.Error("writeback of cached block missed HBM")
	}
	dramW := s.Devices().DRAM.Stats().WriteBytes
	s.Writeback(now, addr.Addr(21*addr.MiB))
	if s.Devices().DRAM.Stats().WriteBytes <= dramW {
		t.Error("writeback of cold block missed DRAM")
	}
}

func TestPOMRemapBijection(t *testing.T) {
	s := newSys(t)
	var now uint64
	// Promote several pages and verify occupant/newPLE stay inverse.
	setStride := s.geom.Sets() * pageBytes
	for p := uint64(0); p < 12; p++ {
		base := addr.Addr(p * setStride)
		for i := 0; i < migrateAt+2; i++ {
			now = s.Access(now, base+addr.Addr(uint64(i%blocksPer)*blockBytes), false)
		}
	}
	for si := uint64(0); si < s.geom.Sets(); si++ {
		newPLE, occupant := s.pomRow(si)
		for slot, o := range occupant {
			if o >= 0 && newPLE[o] != int16(slot) {
				t.Fatalf("set %d: occupant[%d]=%d but newPLE[%d]=%d",
					si, slot, o, o, newPLE[o])
			}
		}
	}
}

func TestName(t *testing.T) {
	if newSys(t).Name() != "hybrid2" {
		t.Error("bad name")
	}
}

// TestNewRefusesWideSets pins the geometry the int16 remapping table
// cannot index: more than 32767 page slots in one remapping set.
func TestNewRefusesWideSets(t *testing.T) {
	sys := config.Default().Scaled(2048)
	sys.DRAM.CapacityBytes = 2 * addr.GiB
	if _, err := New(sys); err == nil || !strings.Contains(err.Error(), "exceeds PLE range") {
		t.Fatalf("a 2 GiB DRAM over 30 remapping sets gave err=%v, want a PLE range refusal", err)
	}
}
