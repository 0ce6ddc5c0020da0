package config

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/addr"
)

func TestDefaultValidates(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("Default() invalid: %v", err)
	}
}

func TestDefaultMatchesTableI(t *testing.T) {
	s := Default()
	if s.Core.FreqMHz != 3600 {
		t.Errorf("core freq = %d, want 3600", s.Core.FreqMHz)
	}
	if s.HBM.CapacityBytes != 1*addr.GiB {
		t.Errorf("HBM capacity = %d, want 1GiB", s.HBM.CapacityBytes)
	}
	if s.DRAM.CapacityBytes != 10*addr.GiB {
		t.Errorf("DRAM capacity = %d, want 10GiB", s.DRAM.CapacityBytes)
	}
	if s.HBM.Channels != 8 || s.HBM.ChannelBits != 128 {
		t.Errorf("HBM channels = %dx%db, want 8x128b", s.HBM.Channels, s.HBM.ChannelBits)
	}
	if s.DRAM.Channels != 2 || s.DRAM.ChannelBits != 64 {
		t.Errorf("DRAM channels = %dx%db, want 2x64b", s.DRAM.Channels, s.DRAM.ChannelBits)
	}
	if s.HBM.Timing.TCAS != 7 || s.HBM.Timing.TRCD != 7 || s.HBM.Timing.TRP != 7 {
		t.Errorf("HBM timing = %+v, want 7-7-7", s.HBM.Timing)
	}
	if s.DRAM.Timing.TCAS != 22 || s.DRAM.Timing.TRCD != 22 || s.DRAM.Timing.TRP != 22 {
		t.Errorf("DRAM timing = %+v, want 22-22-22", s.DRAM.Timing)
	}
	if len(s.Caches) != 3 {
		t.Fatalf("cache levels = %d, want 3", len(s.Caches))
	}
	if s.Caches[2].SizeBytes != 8*addr.MiB || s.Caches[2].Ways != 16 || s.Caches[2].Policy != "DRRIP" {
		t.Errorf("LLC = %+v, want 8MiB 16-way DRRIP", s.Caches[2])
	}
}

func TestPeakBandwidth(t *testing.T) {
	s := Default()
	// HBM2: 8 ch x 128 bit x 2 (DDR) x 1 GHz = 256 GB/s.
	if got := s.HBM.PeakBandwidthGBs(); got < 255 || got > 257 {
		t.Errorf("HBM peak bandwidth = %f, want ~256", got)
	}
	// DDR4-3200: 2 ch x 64 bit x 2 x 1.6 GHz = 51.2 GB/s.
	if got := s.DRAM.PeakBandwidthGBs(); got < 51 || got > 52 {
		t.Errorf("DRAM peak bandwidth = %f, want ~51.2", got)
	}
}

func TestValidateRejects(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*System)
		want string
	}{
		{"zero freq", func(s *System) { s.Core.FreqMHz = 0 }, "frequency"},
		{"zero cpi", func(s *System) { s.Core.CPIBase = 0 }, "CPI"},
		{"zero mlp", func(s *System) { s.Core.MLP = 0 }, "MLP"},
		{"no caches", func(s *System) { s.Caches = nil }, "cache level"},
		{"bad policy", func(s *System) { s.Caches[0].Policy = "FIFO" }, "policy"},
		// cache.NewCache refuses the same level with the same message.
		{"over 16 ways", func(s *System) { s.Caches[2].Ways = 32 }, `cache "L3": 32 ways, want 1 to 16`},
		{"zero channels", func(s *System) { s.HBM.Channels = 0 }, "channels"},
		{"zero clock", func(s *System) { s.DRAM.Timing.ClockMHz = 0 }, "clock"},
		// dram.New refuses the same devices with the same message.
		{"interleave not a power of two", func(s *System) { s.HBM.InterleaveB = 384 }, `device "HBM2": InterleaveB 384 is not a power of two`},
		{"channels not a power of two", func(s *System) { s.DRAM.Channels = 3 }, `device "DDR4-3200": Channels 3 is not a power of two`},
		{"row size not a power of two", func(s *System) { s.DRAM.RowBytes = 6 * addr.KiB }, `device "DDR4-3200": RowBytes 6144 is not a power of two`},
		{"banks not a power of two", func(s *System) { s.HBM.Banks = 12 }, `device "HBM2": Banks 12 is not a power of two`},
		{"zero interleave", func(s *System) { s.DRAM.InterleaveB = 0 }, `device "DDR4-3200": InterleaveB 0 is not a power of two`},
		{"bad ratio", func(s *System) { s.Bumblebee.FixedCacheRatio = 1.5 }, "ratio"},
		{"alloc conflict", func(s *System) {
			s.Bumblebee.AllocAllDRAM = true
			s.Bumblebee.AllocAllHBM = true
		}, "mutually exclusive"},
		{"bad block", func(s *System) { s.BlockBytes = 3000 }, "multiple"},
		{"zero hot queue depth", func(s *System) { s.Bumblebee.HotQueueDepth = 0 }, "hot queue depth 0"},
		{"zero zombie window", func(s *System) { s.Bumblebee.ZombieWindow = 0 }, "zombie window 0"},
		{"zero move batch", func(s *System) { s.MoveBatch = 0 }, "move batch 0"},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			s := Default()
			m.mut(&s)
			err := s.Validate()
			if err == nil {
				t.Fatal("Validate() = nil, want error")
			}
			if !strings.Contains(err.Error(), m.want) {
				t.Errorf("error %q does not mention %q", err, m.want)
			}
		})
	}
}

// TestScaledKeepsRatio pins the Table I scaling rule: memories and
// every cache level shrink by the factor, a cache level stops at four
// lines per way, factors of 1 or less change nothing, and the input's
// Caches is left alone.
func TestScaledKeepsRatio(t *testing.T) {
	in := Default()
	s := in.Scaled(256)
	if err := s.Validate(); err != nil {
		t.Fatalf("scaled config invalid: %v", err)
	}
	if !reflect.DeepEqual(in, Default()) {
		t.Errorf("Scaled modified its input's Caches: %+v", in.Caches)
	}
	if s.DRAM.CapacityBytes/s.HBM.CapacityBytes != 10 {
		t.Errorf("scaled DRAM:HBM = %d:%d, want 10:1", s.DRAM.CapacityBytes, s.HBM.CapacityBytes)
	}
	llc, full := s.Caches[len(s.Caches)-1], in.Caches[len(in.Caches)-1]
	if llc.SizeBytes*in.HBM.CapacityBytes != full.SizeBytes*s.HBM.CapacityBytes {
		t.Errorf("scaled LLC:HBM = %d:%d, want Table I's %d:%d",
			llc.SizeBytes, s.HBM.CapacityBytes, full.SizeBytes, in.HBM.CapacityBytes)
	}
	for _, c := range s.Caches[:2] {
		if floor := uint64(c.Ways) * c.LineBytes * 4; c.SizeBytes != floor {
			t.Errorf("scaled %s = %d B, want the four-lines-per-way floor %d B", c.Name, c.SizeBytes, floor)
		}
	}
	for _, f := range []uint64{0, 1} {
		if got := Default().Scaled(f); !reflect.DeepEqual(got, Default()) {
			t.Errorf("Scaled(%d) changed the system: %+v", f, got)
		}
	}
}

func TestGeometryFromConfig(t *testing.T) {
	g, err := Default().Geometry()
	if err != nil {
		t.Fatal(err)
	}
	if g.PagesPerSet() != 88 {
		t.Errorf("pages per set = %d, want 88 (m=80, n=8)", g.PagesPerSet())
	}
}
