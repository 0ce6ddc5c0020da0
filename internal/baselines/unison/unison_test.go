package unison

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

func TestPageMissFillThenHit(t *testing.T) {
	c := newCache(t)
	a := addr.Addr(0x2000)
	now := c.Access(0, a, false)
	cnt := c.Counters()
	if cnt.ServedDRAM != 1 {
		t.Fatalf("cold access = %+v", cnt)
	}
	c.Access(now, a, false)
	if c.Counters().ServedHBM != 1 {
		t.Errorf("second access = %+v", c.Counters())
	}
}

func TestFirstResidencyFetchesOnlyDemand(t *testing.T) {
	c := newCache(t)
	c.Access(0, 0, false)
	// A first-time page has no footprint history: only the demand block
	// is fetched.
	if got := c.Counters().FetchedBytes; got != blockBytes {
		t.Errorf("first fill fetched %d bytes, want %d", got, blockBytes)
	}
}

func TestFootprintPredictionOnRefill(t *testing.T) {
	c := newCache(t)
	var now uint64
	// Touch 4 blocks of page 0.
	for blk := uint64(0); blk < 4; blk++ {
		now = c.Access(now, addr.Addr(blk*blockBytes), false)
	}
	// Evict page 0 by filling its set with conflicting pages.
	nsets := c.sets()
	for i := uint64(1); i <= ways; i++ {
		now = c.Access(now, addr.Addr(i*nsets*pageBytes), false)
	}
	fetchedBefore := c.Counters().FetchedBytes
	// Re-access page 0: the predicted footprint (4 blocks) is fetched.
	c.Access(now, 0, false)
	delta := c.Counters().FetchedBytes - fetchedBefore
	if delta != 4*blockBytes {
		t.Errorf("refill fetched %d bytes, want %d (predicted footprint)", delta, 4*blockBytes)
	}
}

func TestUnderPredictionFetchesBlock(t *testing.T) {
	c := newCache(t)
	now := c.Access(0, 0, false)
	// Another block of the same resident page: present bit is off.
	done := c.Access(now, addr.Addr(10*blockBytes), false)
	if done == 0 {
		t.Fatal("no completion")
	}
	cnt := c.Counters()
	if cnt.ServedDRAM != 2 {
		t.Errorf("under-predicted block not served from DRAM: %+v", cnt)
	}
	if cnt.FetchedBytes != 2*blockBytes {
		t.Errorf("fetched = %d, want %d", cnt.FetchedBytes, 2*blockBytes)
	}
}

func TestEvictWritesDirtyBlocks(t *testing.T) {
	c := newCache(t)
	now := c.Access(0, 0, true) // dirty block 0 of page 0
	wrBefore := c.Devices().DRAM.Stats().WriteBytes
	nsets := c.sets()
	for i := uint64(1); i <= ways; i++ {
		now = c.Access(now, addr.Addr(i*nsets*pageBytes), false)
	}
	if got := c.Devices().DRAM.Stats().WriteBytes - wrBefore; got < blockBytes {
		t.Errorf("dirty eviction wrote %d bytes", got)
	}
	if c.Counters().Evictions == 0 {
		t.Error("no evictions recorded")
	}
}

func TestTagProbeCostsHBMRead(t *testing.T) {
	c := newCache(t)
	c.Access(0, 0, false)
	if c.Devices().HBM.Stats().Reads == 0 {
		t.Error("lookup did not read embedded tags from HBM")
	}
}

func TestWritebackRouting(t *testing.T) {
	c := newCache(t)
	now := c.Access(0, 0, false)
	hbmW := c.Devices().HBM.Stats().WriteBytes
	c.Writeback(now, 0)
	if c.Devices().HBM.Stats().WriteBytes <= hbmW {
		t.Error("resident writeback missed HBM")
	}
	dramW := c.Devices().DRAM.Stats().WriteBytes
	c.Writeback(now, addr.Addr(5*addr.MiB))
	if c.Devices().DRAM.Stats().WriteBytes <= dramW {
		t.Error("absent writeback missed DRAM")
	}
}

func TestName(t *testing.T) {
	if newCache(t).Name() != "unison" {
		t.Error("bad name")
	}
}
