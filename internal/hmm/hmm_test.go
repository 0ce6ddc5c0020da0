package hmm

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/config"
)

func scaledSys() config.System {
	return config.Default().Scaled(64)
}

func newDev(t testing.TB) *Devices {
	t.Helper()
	d, err := NewDevices(scaledSys())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewDevicesRejectsInvalid(t *testing.T) {
	sys := scaledSys()
	sys.Core.MLP = 0
	if _, err := NewDevices(sys); err == nil {
		t.Error("invalid system accepted")
	}
}

func TestCopyChargesBothDevices(t *testing.T) {
	d := newDev(t)
	size := d.Geom.PageSize
	done := d.CopyDRAMToHBM(0, 0, 0, 0, 0, size)
	if done == 0 {
		t.Fatal("copy completed at cycle 0")
	}
	if got := d.DRAM.Stats().ReadBytes; got != size {
		t.Errorf("DRAM read bytes = %d, want %d", got, size)
	}
	if got := d.HBM.Stats().WriteBytes; got != size {
		t.Errorf("HBM write bytes = %d, want %d", got, size)
	}
}

func TestSwapChargesFourTransfers(t *testing.T) {
	d := newDev(t)
	size := d.Geom.PageSize
	d.SwapPages(0, 1, 2)
	hbm, ddr := d.HBM.Stats(), d.DRAM.Stats()
	if hbm.ReadBytes != size || hbm.WriteBytes != size {
		t.Errorf("HBM traffic = %d/%d, want %d/%d", hbm.ReadBytes, hbm.WriteBytes, size, size)
	}
	if ddr.ReadBytes != size || ddr.WriteBytes != size {
		t.Errorf("DRAM traffic = %d/%d, want %d/%d", ddr.ReadBytes, ddr.WriteBytes, size, size)
	}
}

func TestMetaSRAMvsHBM(t *testing.T) {
	d := newDev(t)
	sys := scaledSys()
	sram := NewMeta(sys, d, false)
	inHBM := NewMeta(sys, d, true)

	sramDone := sram.Lookup(0, 42)
	if sramDone == 0 || sramDone > 16 {
		t.Errorf("SRAM metadata lookup latency = %d, want a few cycles", sramDone)
	}
	if d.HBM.Stats().ReadBytes != 0 {
		t.Error("SRAM lookup touched HBM")
	}
	hbmDone := inHBM.Lookup(0, 42)
	if hbmDone <= sramDone {
		t.Errorf("in-HBM lookup %d not slower than SRAM %d", hbmDone, sramDone)
	}
	if d.HBM.Stats().ReadBytes != 64 {
		t.Errorf("in-HBM lookup traffic = %d, want 64", d.HBM.Stats().ReadBytes)
	}
	if sram.Lookups != 1 || inHBM.Lookups != 1 {
		t.Errorf("lookup counters = %d/%d", sram.Lookups, inHBM.Lookups)
	}
}

func TestMetaUpdatePosted(t *testing.T) {
	d := newDev(t)
	sys := scaledSys()
	inHBM := NewMeta(sys, d, true)
	inHBM.Update(0, 9)
	if d.HBM.Stats().WriteBytes != 64 {
		t.Errorf("in-HBM update traffic = %d, want 64", d.HBM.Stats().WriteBytes)
	}
}

func TestMetaCacheHitAvoidsHBM(t *testing.T) {
	d := newDev(t)
	meta := NewMeta(scaledSys(), d, true)
	mc, err := NewMetaCache(meta, 128)
	if err != nil {
		t.Fatal(err)
	}
	mc.Lookup(0, 5)
	before := d.HBM.Stats().ReadBytes
	mc.Lookup(1000, 5)
	if d.HBM.Stats().ReadBytes != before {
		t.Error("metadata cache hit still read HBM")
	}
	if mc.Hits != 1 || mc.Misses != 1 {
		t.Errorf("hits/misses = %d/%d, want 1/1", mc.Hits, mc.Misses)
	}
	// Conflicting key evicts.
	mc.Lookup(2000, 5+128)
	mc.Lookup(3000, 5)
	if mc.Misses != 3 {
		t.Errorf("misses = %d, want 3 after conflict", mc.Misses)
	}
}

func TestNewMetaCacheRejectsZero(t *testing.T) {
	d := newDev(t)
	meta := NewMeta(scaledSys(), d, false)
	if _, err := NewMetaCache(meta, 0); err == nil {
		t.Error("zero-entry metadata cache accepted")
	}
}

func TestFetchTrackerBasic(t *testing.T) {
	ft := NewFetchTracker(64 * addr.KiB)
	ft.OnFetch(3, 0, 2048) // one 2 KB block = 32 words
	if ft.Fetched != 2048 {
		t.Errorf("fetched = %d", ft.Fetched)
	}
	ft.OnUse(3, 0, 64)
	ft.OnUse(3, 64, 64)
	if ft.Used != 128 {
		t.Errorf("used = %d, want 128", ft.Used)
	}
	// Re-touching the same word adds nothing.
	ft.OnUse(3, 0, 64)
	if ft.Used != 128 {
		t.Errorf("re-touch counted: used = %d", ft.Used)
	}
	// Touching unfetched region adds nothing.
	ft.OnUse(3, 32*1024, 64)
	if ft.Used != 128 {
		t.Errorf("unfetched touch counted: used = %d", ft.Used)
	}
	// Untracked page is ignored.
	ft.OnUse(9, 0, 64)
	if ft.Used != 128 {
		t.Errorf("untracked page counted: used = %d", ft.Used)
	}
}

func TestFetchTrackerEvictAndRefetch(t *testing.T) {
	ft := NewFetchTracker(64 * addr.KiB)
	ft.OnFetch(1, 0, 64)
	ft.OnEvict(1)
	ft.OnUse(1, 0, 64)
	if ft.Used != 0 {
		t.Errorf("use after evict counted: %d", ft.Used)
	}
	ft.OnFetch(1, 0, 64)
	ft.OnUse(1, 0, 64)
	if ft.Used != 64 || ft.Fetched != 128 {
		t.Errorf("refetch accounting = used %d fetched %d", ft.Used, ft.Fetched)
	}
}

func TestOverfetchRate(t *testing.T) {
	c := Counters{FetchedBytes: 1000, UsedBytes: 867}
	if got := c.OverfetchRate(); got < 0.132 || got > 0.134 {
		t.Errorf("overfetch rate = %f, want ~0.133", got)
	}
	if (Counters{}).OverfetchRate() != 0 {
		t.Error("empty counters overfetch != 0")
	}
	clamped := Counters{FetchedBytes: 100, UsedBytes: 200}
	if got := clamped.OverfetchRate(); got != 0 {
		t.Errorf("overused clamp = %f, want 0", got)
	}
}

func TestHBMServeRate(t *testing.T) {
	c := Counters{Requests: 10, ServedHBM: 7}
	if got := c.HBMServeRate(); got != 0.7 {
		t.Errorf("serve rate = %f", got)
	}
	if (Counters{}).HBMServeRate() != 0 {
		t.Error("empty counters serve rate != 0")
	}
}

func TestMoverBudget(t *testing.T) {
	m := NewMover(10) // 10 bytes per cycle
	if !m.TryStart(0, 1000) {
		t.Fatal("idle mover refused")
	}
	// 1000 bytes at 10 B/cyc busies the engine until cycle 100.
	if m.TryStart(50, 1) {
		t.Error("busy mover accepted")
	}
	if !m.TryStart(100, 1) {
		t.Error("freed mover refused")
	}
	if m.Started != 2 || m.Skipped != 1 {
		t.Errorf("counters = %d/%d", m.Started, m.Skipped)
	}
}

func TestMoverCharge(t *testing.T) {
	m := NewMover(10)
	m.TryStart(0, 100) // busy until 10
	m.Charge(100)      // busy until 20
	if m.TryStart(15, 1) {
		t.Error("charged mover accepted too early")
	}
	if !m.TryStart(20, 1) {
		t.Error("charged mover refused after window")
	}
}

func TestMoverDefensiveBudget(t *testing.T) {
	m := NewMover(0) // clamped to something positive
	if !m.TryStart(0, 1) {
		t.Error("zero-budget mover unusable")
	}
}

func TestOSMemAdmit(t *testing.T) {
	const page = 64 * 1024
	for _, tc := range []struct {
		name     string
		capacity uint64
	}{
		{"whole pages", 10 * page},
		// A partial last page is not OS-visible: the capacity rounds
		// down to ten whole pages.
		{"partial page", 10*page + page/2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := NewOSMem(tc.capacity, page, 2000, 3600)
			if got := o.Admit(100, 0); got != 100 {
				t.Errorf("first byte delayed: %d", got)
			}
			if got := o.Admit(100, 10*page-1); got != 100 {
				t.Errorf("last byte of the last whole page delayed: %d", got)
			}
			if o.Faults != 0 {
				t.Fatalf("faults = %d inside capacity", o.Faults)
			}
			got := o.Admit(100, 10*page)
			if got-100 != o.PenaltyCycles {
				t.Errorf("first byte past the last whole page: delay %d, want %d", got-100, o.PenaltyCycles)
			}
			if o.Faults != 1 {
				t.Errorf("faults = %d, want 1", o.Faults)
			}
			// 2 us at 3.6 GHz = 7200 cycles.
			if o.PenaltyCycles != 7200 {
				t.Errorf("penalty cycles = %d, want 7200", o.PenaltyCycles)
			}
		})
	}
}

func TestOSMemFault(t *testing.T) {
	o := NewOSMem(1<<20, 1<<16, 1000, 3600)
	if got := o.Fault(50); got <= 50 {
		t.Error("Fault added no delay")
	}
	if o.Faults != 1 {
		t.Errorf("faults = %d", o.Faults)
	}
	var nilOS *OSMem
	if got := nilOS.Admit(7, 99); got != 7 {
		t.Error("nil OSMem changed time")
	}
	if got := nilOS.Fault(7); got != 7 {
		t.Error("nil OSMem Fault changed time")
	}
}

func TestCopyHBMToHBM(t *testing.T) {
	d := newDev(t)
	done := d.CopyHBMToHBM(0, 0, 0, 1, 0, 4096)
	if done == 0 {
		t.Fatal("copy finished at 0")
	}
	st := d.HBM.Stats()
	if st.ReadBytes != 4096 || st.WriteBytes != 4096 {
		t.Errorf("HBM-to-HBM traffic = %d/%d", st.ReadBytes, st.WriteBytes)
	}
}

func TestAccessHelpers(t *testing.T) {
	d := newDev(t)
	d.AccessHBM(0, 0, 128, 64, true)
	d.AccessDRAM(0, 0, 256, 64, false)
	if d.HBM.Stats().WriteBytes != 64 {
		t.Error("AccessHBM write missing")
	}
	if d.DRAM.Stats().ReadBytes != 64 {
		t.Error("AccessDRAM read missing")
	}
}

func TestFetchTrackerDrain(t *testing.T) {
	ft := NewFetchTracker(64 * 1024)
	ft.OnFetch(1, 0, 64)
	ft.Drain()
	ft.OnUse(1, 0, 64)
	if ft.Used != 0 {
		t.Errorf("use after drain counted: %d", ft.Used)
	}
}
