package dram

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/addr"
	"repro/internal/config"
)

func newHBM(t testing.TB) *Device {
	t.Helper()
	d, err := New(config.Default().HBM, config.Default().Core.FreqMHz)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func newDDR(t testing.TB) *Device {
	t.Helper()
	d, err := New(config.Default().DRAM, config.Default().Core.FreqMHz)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewRejectsBadConfig(t *testing.T) {
	bad := config.Default().HBM
	bad.Channels = 0
	if _, err := New(bad, 3600); err == nil {
		t.Error("zero channels accepted")
	}
	bad2 := config.Default().HBM
	bad2.Timing.ClockMHz = 0
	if _, err := New(bad2, 3600); err == nil {
		t.Error("zero clock accepted")
	}
	if _, err := New(config.Default().HBM, 0); err == nil {
		t.Error("zero CPU clock accepted")
	}
}

// TestNewRefusesNonPowerOfTwo checks that New refuses a device its
// shift-and-mask decode cannot split, with the message System.Validate
// gives.
func TestNewRefusesNonPowerOfTwo(t *testing.T) {
	for _, tc := range []struct {
		field string
		mut   func(*config.DRAMDevice)
	}{
		{"InterleaveB", func(d *config.DRAMDevice) { d.InterleaveB = 768 }},
		{"Channels", func(d *config.DRAMDevice) { d.Channels = 6 }},
		{"RowBytes", func(d *config.DRAMDevice) { d.RowBytes = 3 * addr.KiB }},
		{"Banks", func(d *config.DRAMDevice) { d.Banks = 5 }},
	} {
		t.Run(tc.field, func(t *testing.T) {
			cfg := config.Default().HBM
			tc.mut(&cfg)
			_, err := New(cfg, 3600)
			if err == nil {
				t.Fatal("New accepted a non-power-of-two device")
			}
			if !strings.Contains(err.Error(), tc.field+" ") || err.Error() != cfg.CheckPowersOfTwo().Error() {
				t.Errorf("error %q does not name %s as System.Validate does", err, tc.field)
			}
		})
	}
}

// TestLocateMatchesDivision holds the shift-and-mask decode to the
// division form of the same channel/bank/row split on both Table I
// devices.
func TestLocateMatchesDivision(t *testing.T) {
	for _, d := range []*Device{newHBM(t), newDDR(t)} {
		cfg := d.Config()
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 10000; i++ {
			a := rng.Uint64() % cfg.CapacityBytes
			ileave := a / cfg.InterleaveB
			local := ileave/uint64(cfg.Channels)*cfg.InterleaveB + a%cfg.InterleaveB
			rowGlobal := local / cfg.RowBytes
			wantCh, wantBk := int(ileave%uint64(cfg.Channels)), int(rowGlobal%uint64(cfg.Banks))
			wantRow := int64(rowGlobal / uint64(cfg.Banks))
			if ch, bk, row := d.locate(addr.Addr(a)); ch != wantCh || bk != wantBk || row != wantRow {
				t.Fatalf("%s: locate(%#x) = (%d,%d,%d), want (%d,%d,%d)",
					cfg.Name, a, ch, bk, row, wantCh, wantBk, wantRow)
			}
		}
	}
}

func TestUnloadedLatencyOrdering(t *testing.T) {
	hbm, ddr := newHBM(t), newDDR(t)
	// HBM 7-7 @1GHz is far faster than DDR4 22-22 @1.6GHz in CPU cycles.
	if hbm.UnloadedLatency() >= ddr.UnloadedLatency() {
		t.Errorf("HBM unloaded %d >= DDR %d", hbm.UnloadedLatency(), ddr.UnloadedLatency())
	}
}

func TestRowHitFasterThanMiss(t *testing.T) {
	d := newHBM(t)
	a := addr.Addr(0)
	end1 := d.Access(0, a, 64, false)    // closed row: tRCD+tCAS
	end2 := d.Access(end1, a, 64, false) // row hit: tCAS only
	hitLat := end2 - end1
	conflictAddr := addr.Addr(uint64(d.cfg.InterleaveB) * uint64(d.cfg.Channels) * uint64(d.cfg.Banks) * 8)
	_ = conflictAddr
	if hitLat >= end1 {
		t.Errorf("row hit latency %d >= cold latency %d", hitLat, end1)
	}
	st := d.Stats()
	if st.RowHits != 1 {
		t.Errorf("row hits = %d, want 1", st.RowHits)
	}
	if st.Activates != 1 {
		t.Errorf("activates = %d, want 1", st.Activates)
	}
}

func TestRowConflictCostsPrecharge(t *testing.T) {
	d := newHBM(t)
	cfg := d.Config()
	// Two rows on the same channel+bank: same interleave slot, offset by
	// rowBytes*banks*channels.
	a1 := addr.Addr(0)
	a2 := addr.Addr(cfg.RowBytes * uint64(cfg.Banks) * uint64(cfg.Channels))
	if c1, b1, r1 := d.locate(a1); true {
		c2, b2, r2 := d.locate(a2)
		if c1 != c2 || b1 != b2 || r1 == r2 {
			t.Fatalf("test addresses do not conflict: (%d,%d,%d) vs (%d,%d,%d)", c1, b1, r1, c2, b2, r2)
		}
	}
	end1 := d.Access(0, a1, 64, false)
	end2 := d.Access(end1, a2, 64, false)
	missLat := end2 - end1
	if missLat <= end1 {
		t.Errorf("conflict latency %d <= cold latency %d (should add tRP)", missLat, end1)
	}
}

func TestChannelParallelism(t *testing.T) {
	d := newHBM(t)
	cfg := d.Config()
	// Sequential accesses to different channels at the same time should
	// overlap almost entirely.
	endSame := d.Access(0, 0, 64, false)
	d2 := newHBM(t)
	a2 := addr.Addr(cfg.InterleaveB) // next channel
	e1 := d2.Access(0, 0, 64, false)
	e2 := d2.Access(0, a2, 64, false)
	if e2 > e1+4 { // allow rounding slack
		t.Errorf("parallel channel access finished at %d, serial-equivalent %d", e2, endSame)
	}
}

func TestLargeTransferUsesAllChannels(t *testing.T) {
	d := newHBM(t)
	cfg := d.Config()
	pageBytes := uint64(64 * addr.KiB)
	end := d.Access(0, 0, pageBytes, false)
	// With 8 channels the transfer should take roughly 1/8 the single
	// channel serial time. Compare against a generous bound: half of the
	// serialized time.
	serial := float64(pageBytes) * d.cyclesPerByte
	if float64(end) > serial {
		t.Errorf("64KB transfer took %d cycles, worse than fully serial %f", end, serial)
	}
	if got := d.Stats().ReadBytes; got != pageBytes {
		t.Errorf("read bytes = %d, want %d", got, pageBytes)
	}
	_ = cfg
}

func TestEnergyAccounting(t *testing.T) {
	d := newHBM(t)
	d.Access(0, 0, 64, false)
	st := d.Stats()
	if st.ActEnergyPJ <= 0 || st.ReadEnergyPJ <= 0 {
		t.Errorf("energies not positive: %+v", st)
	}
	if st.WriteEnergyPJ != 0 {
		t.Errorf("write energy %f after read-only access", st.WriteEnergyPJ)
	}
	before := st.DynamicEnergyPJ()
	d.Access(100000, 64, 64, true)
	after := d.Stats().DynamicEnergyPJ()
	if after <= before {
		t.Errorf("energy did not grow after write: %f -> %f", before, after)
	}
	if d.Stats().WriteEnergyPJ <= 0 {
		t.Error("write energy not accounted")
	}
}

func TestWriteEnergyExceedsReadEnergyHBM(t *testing.T) {
	// Table I: HBM IDD4W=500 > IDD4R=390, so a write burst must cost more.
	d1, d2 := newHBM(t), newHBM(t)
	d1.Access(0, 0, 64, false)
	d2.Access(0, 0, 64, true)
	if d2.Stats().WriteEnergyPJ <= d1.Stats().ReadEnergyPJ {
		t.Errorf("HBM write energy %f <= read energy %f",
			d2.Stats().WriteEnergyPJ, d1.Stats().ReadEnergyPJ)
	}
}

func TestMonotoneCompletionProperty(t *testing.T) {
	d := newDDR(t)
	var now uint64
	f := func(rawAddr uint32, write bool) bool {
		a := addr.Addr(uint64(rawAddr) % d.Config().CapacityBytes)
		end := d.Access(now, a, 64, write)
		ok := end > now
		now = end
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestBandwidthSaturation(t *testing.T) {
	// Issuing many back-to-back accesses at time 0 must finish no earlier
	// than bytes / peak-bandwidth.
	d := newHBM(t)
	const n = 512
	var end uint64
	for i := 0; i < n; i++ {
		e := d.Access(0, addr.Addr(i*64), 64, false)
		if e > end {
			end = e
		}
	}
	minCycles := float64(n*64) / d.PeakBytesPerCycle()
	if float64(end) < minCycles {
		t.Errorf("finished %d accesses in %d cycles, below physical bound %f", n, end, minCycles)
	}
}

func TestStatsTotalBytes(t *testing.T) {
	d := newDDR(t)
	d.Access(0, 0, 128, false)
	d.Access(0, 4096, 256, true)
	st := d.Stats()
	if st.TotalBytes() != 384 {
		t.Errorf("TotalBytes = %d, want 384", st.TotalBytes())
	}
}

func TestZeroByteAccessIsFree(t *testing.T) {
	d := newHBM(t)
	if end := d.Access(42, 0, 0, false); end != 42 {
		t.Errorf("zero-byte access returned %d, want 42", end)
	}
	if st := d.Stats(); st.Reads != 0 {
		t.Errorf("zero-byte access counted: %+v", st)
	}
}

func TestRefreshBlocksAndCloses(t *testing.T) {
	d := newHBM(t)
	// First access before the refresh deadline: no refresh yet.
	d.Access(0, 0, 64, false)
	if d.Stats().Refreshes != 0 {
		t.Fatalf("refresh before tREFI: %d", d.Stats().Refreshes)
	}
	// Jump far past several refresh intervals: the next access pays one
	// refresh (skipped ones ran during the idle gap).
	far := d.tREFI * 10
	end := d.Access(far, 0, 64, false)
	st := d.Stats()
	if st.Refreshes != 1 {
		t.Errorf("refreshes = %d, want 1", st.Refreshes)
	}
	if end < far+d.tRFC {
		t.Errorf("access finished at %d, inside the refresh window ending %d", end, far+d.tRFC)
	}
	if st.RefEnergyPJ <= 0 {
		t.Error("refresh energy not accounted")
	}
	// The refresh closed the row: this access must have activated again.
	if st.Activates != 2 {
		t.Errorf("activates = %d, want 2 (row closed by refresh)", st.Activates)
	}
}

func TestWriteToReadTurnaround(t *testing.T) {
	d1, d2 := newHBM(t), newHBM(t)
	// read-after-read on d1, read-after-write on d2 at the same bank/row.
	e1 := d1.Access(0, 0, 64, false)
	r1 := d1.Access(e1, 0, 64, false) - e1
	e2 := d2.Access(0, 0, 64, true)
	r2 := d2.Access(e2, 0, 64, false) - e2
	if r2 <= r1 {
		t.Errorf("read-after-write latency %d not above read-after-read %d", r2, r1)
	}
}

func TestBackgroundEnergyProportionalToRuntime(t *testing.T) {
	d := newHBM(t)
	e1 := d.BackgroundEnergyPJ(1000)
	e2 := d.BackgroundEnergyPJ(2000)
	if e1 <= 0 || e2 != 2*e1 {
		t.Errorf("background energy not proportional: %f vs %f", e1, e2)
	}
}

func TestNoRefreshWhenDisabled(t *testing.T) {
	cfg := config.Default().HBM
	cfg.Timing.TREFI = 0
	d, err := New(cfg, 3600)
	if err != nil {
		t.Fatal(err)
	}
	d.Access(1<<40, 0, 64, false)
	if d.Stats().Refreshes != 0 {
		t.Error("refresh ran with TREFI=0")
	}
}

// BenchmarkDeviceAccess reports the device model's ns per Access on the
// scale-128 Table I HBM2 and DDR4 devices, under a seeded mix of the
// transfers the designs issue: 64 B demand reads and writes, 72 B Alloy
// tag-and-data (TAD) transfers and 512 B chunks of page moves.
func BenchmarkDeviceAccess(b *testing.B) {
	sys := config.Default().Scaled(128)
	for _, cfg := range []config.DRAMDevice{sys.HBM, sys.DRAM} {
		b.Run(cfg.Name, func(b *testing.B) {
			d, err := New(cfg, sys.Core.FreqMHz)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			type op struct {
				a     addr.Addr
				bytes uint64
				write bool
			}
			ops := make([]op, 1<<16)
			for i := range ops {
				o := &ops[i]
				switch r := rng.Intn(8); {
				case r < 5:
					o.bytes = 64
				case r < 7:
					o.bytes = 72
				default:
					o.bytes = 512
				}
				o.a = addr.Addr(rng.Uint64() % (cfg.CapacityBytes / o.bytes) * o.bytes)
				o.write = rng.Intn(3) == 0
			}
			var now uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, o := range ops {
					d.Access(now, o.a, o.bytes, o.write)
					now += 8
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ops)), "ns/access")
		})
	}
}
