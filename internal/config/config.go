// Package config holds the system configuration from the paper's Table I —
// core, cache hierarchy, HBM2 and DDR4 device parameters — plus per-design
// knobs. Everything is expressed in plain physical units (MHz, ns, mA, V);
// the timing models convert to CPU cycles.
package config

import (
	"fmt"

	"repro/internal/addr"
)

// Core describes the processor core model (Table I: ARM A72, 3600 MHz).
type Core struct {
	FreqMHz uint64  // core clock
	CPIBase float64 // cycles per instruction with an ideal memory system
	MLP     int     // max overlapping LLC misses (interval model window)
}

// CacheLevel describes one SRAM cache level.
type CacheLevel struct {
	Name       string
	SizeBytes  uint64
	Ways       int
	LineBytes  uint64
	Policy     string // "LRU", "SRRIP", "DRRIP"
	LatencyCyc uint64 // hit latency in core cycles
}

// MaxCacheWays is the widest cache set the SRAM model supports: it keeps
// a set's LRU order as 4-bit way numbers in one 64-bit word. Table I's
// widest level, the L3, has 16 ways.
const MaxCacheWays = 16

// CheckWays refuses an associativity the cache model cannot hold.
// System.Validate and cache.NewCache both report it.
func (c CacheLevel) CheckWays() error {
	if c.Ways < 1 || c.Ways > MaxCacheWays {
		return fmt.Errorf("cache %q: %d ways, want 1 to %d", c.Name, c.Ways, MaxCacheWays)
	}
	return nil
}

// DRAMTiming captures the first-order timing of one DRAM-like device
// (Table I gives tCAS-tRCD-tRP in device clocks; refresh and turnaround
// use standard values for the densities involved).
type DRAMTiming struct {
	ClockMHz uint64 // device command/data clock (data rate = 2x for DDR)
	TCAS     uint64 // column access strobe latency, device clocks
	TRCD     uint64 // row-to-column delay
	TRP      uint64 // row precharge
	TREFI    uint64 // average refresh interval, device clocks (0 = no refresh)
	TRFC     uint64 // refresh cycle time, device clocks
	TWTR     uint64 // write-to-read turnaround, device clocks
}

// DRAMPower holds Micron-style IDD currents (mA) and supply voltage used by
// the dynamic-energy model. Names follow Table I.
type DRAMPower struct {
	VDD   float64 // volts
	IDD0  float64 // activate-precharge current
	IDD2P float64 // precharge power-down
	IDD2N float64 // precharge standby
	IDD3P float64 // active power-down
	IDD3N float64 // active standby
	IDD4W float64 // write burst
	IDD4R float64 // read burst
	IDD5  float64 // refresh
	IDD6  float64 // self refresh
}

// DRAMDevice describes one memory device: geometry, timing and power.
type DRAMDevice struct {
	Name          string
	CapacityBytes uint64
	Channels      int
	ChannelBits   int    // data bus width per channel
	Banks         int    // banks per channel
	RowBytes      uint64 // row-buffer (page) size per bank
	InterleaveB   uint64 // channel interleave granularity
	Timing        DRAMTiming
	Power         DRAMPower
}

// CheckPowersOfTwo refuses a device whose address-decode fields are not
// powers of two: the device model splits an address into channel, bank
// and row by shift and mask alone. System.Validate and dram.New both
// report it.
func (d DRAMDevice) CheckPowersOfTwo() error {
	for _, f := range []struct {
		name string
		v    uint64
	}{
		{"InterleaveB", d.InterleaveB},
		{"Channels", uint64(max(d.Channels, 0))},
		{"RowBytes", d.RowBytes},
		{"Banks", uint64(max(d.Banks, 0))},
	} {
		if f.v == 0 || f.v&(f.v-1) != 0 {
			return fmt.Errorf("device %q: %s %d is not a power of two", d.Name, f.name, f.v)
		}
	}
	return nil
}

// PeakBandwidthGBs returns the aggregate peak bandwidth in GB/s assuming a
// double data rate bus.
func (d DRAMDevice) PeakBandwidthGBs() float64 {
	bytesPerClock := float64(d.Channels) * float64(d.ChannelBits) / 8 * 2
	return bytesPerClock * float64(d.Timing.ClockMHz) * 1e6 / 1e9
}

// Design identifies a hybrid memory design under test.
type Design string

// The designs evaluated in the paper (Figures 7 and 8).
const (
	DesignBumblebee Design = "bumblebee"
	DesignHybrid2   Design = "hybrid2"
	DesignChameleon Design = "chameleon"
	DesignBanshee   Design = "banshee"
	DesignAlloy     Design = "alloy"
	DesignUnison    Design = "unison"
	DesignCacheOnly Design = "c-only"
	DesignPOMOnly   Design = "m-only"
	DesignNoHBM     Design = "no-hbm"
)

// BumblebeeOptions are the ablation switches used for Figure 7.
type BumblebeeOptions struct {
	FixedRatio      bool    // pin the cHBM share at FixedCacheRatio (C-Only/25%-C/50%-C/M-Only)
	FixedCacheRatio float64 // cHBM share of HBM when FixedRatio is set (0=M-Only, 1=C-Only)
	NoMultiplex     bool    // separate cHBM/mHBM spaces (No-Multi)
	MetadataInHBM   bool    // metadata stored in HBM, not SRAM (Meta-H)
	AllocAllDRAM    bool    // allocate every page in off-chip DRAM (Alloc-D)
	AllocAllHBM     bool    // allocate every page in HBM first (Alloc-H)
	NoHMF           bool    // disable high-memory-footprint movement (No-HMF)
	HotQueueDepth   int     // recently-accessed off-chip pages tracked per set
	ZombieWindow    uint64  // accesses after which an unchanged head page is a zombie
}

// Faults configures the deterministic RAS fault injector
// (internal/faults): transient bit errors with ECC correct/detect-retry
// semantics, permanent HBM frame failures that retire page frames
// mid-run, and thermal bandwidth-throttling windows. Rates are expressed
// per million HBM accesses so they are independent of run length and
// capacity scale; the injector draws from a seeded generator so the fault
// schedule is a pure function of the (design, workload, seed) cell.
type Faults struct {
	Enabled bool // master switch; false leaves every HBM access untouched

	// Transient errors: expected ECC events per million HBM accesses.
	// A DetectFrac share is detect-and-retry (the access is re-issued
	// after RetryBackoffCycles); the rest are corrected in-line for
	// CorrectCycles extra latency.
	TransientPer1M     float64
	DetectFrac         float64
	CorrectCycles      uint64
	RetryBackoffCycles uint64

	// Permanent failures: expected frame retirements per million HBM
	// accesses. The frame under access fails; at most MaxRetiredFrac of
	// all HBM frames may retire over a run (predictive retirement keeps
	// the device serving past that point in the field too).
	FrameFailPer1M float64
	MaxRetiredFrac float64

	// Thermal throttling: every ThrottlePeriod HBM accesses, the first
	// ThrottleDuty share of the period is a throttle window during which
	// each access pays ThrottlePenaltyCycles extra (reduced bandwidth,
	// first order).
	ThrottlePeriod        uint64
	ThrottleDuty          float64
	ThrottlePenaltyCycles uint64
}

// System is a complete simulated machine.
type System struct {
	Core   Core
	Caches []CacheLevel // ordered L1 .. LLC
	HBM    DRAMDevice
	DRAM   DRAMDevice

	PageBytes   uint64  // migration granularity
	BlockBytes  uint64  // caching granularity
	HBMWays     uint64  // HBM pages per remapping set
	SRAMMetaNS  float64 // metadata lookup latency when held in SRAM
	MoveBatch   int     // remapping sets flushed together by HMF(5)
	PageFaultNS float64 // OS swap-in penalty for pages beyond OS-visible memory

	Bumblebee BumblebeeOptions
	Faults    Faults
}

// DefaultFaults returns the fault-injection knobs at their reference
// values with injection disabled: HBM2-plausible ECC behaviour (most
// transients corrected in-line, a quarter detect-and-retry) and a 50%
// retirement cap. Callers enable injection by setting Enabled and the
// per-1M rates.
func DefaultFaults() Faults {
	return Faults{
		DetectFrac:            0.25,
		CorrectCycles:         4,
		RetryBackoffCycles:    64,
		MaxRetiredFrac:        0.5,
		ThrottlePenaltyCycles: 8,
	}
}

// Default returns the paper's Table I configuration with Bumblebee's best
// design point (2 KB blocks, 64 KB pages, 8-way sets).
func Default() System {
	return System{
		Core: Core{FreqMHz: 3600, CPIBase: 0.6, MLP: 8},
		Caches: []CacheLevel{
			{Name: "L1D", SizeBytes: 64 * addr.KiB, Ways: 4, LineBytes: 64, Policy: "LRU", LatencyCyc: 4},
			{Name: "L2", SizeBytes: 256 * addr.KiB, Ways: 8, LineBytes: 64, Policy: "SRRIP", LatencyCyc: 12},
			{Name: "L3", SizeBytes: 8 * addr.MiB, Ways: 16, LineBytes: 64, Policy: "DRRIP", LatencyCyc: 38},
		},
		HBM: DRAMDevice{
			Name:          "HBM2",
			CapacityBytes: 1 * addr.GiB,
			Channels:      8,
			ChannelBits:   128,
			Banks:         8,
			RowBytes:      2 * addr.KiB,
			InterleaveB:   512,
			Timing:        DRAMTiming{ClockMHz: 1000, TCAS: 7, TRCD: 7, TRP: 7, TREFI: 3900, TRFC: 260, TWTR: 4},
			Power: DRAMPower{
				VDD: 1.2, IDD0: 65,
				IDD2P: 28, IDD2N: 40,
				IDD3P: 40, IDD3N: 55,
				IDD4W: 500, IDD4R: 390,
				IDD5: 250, IDD6: 31,
			},
		},
		DRAM: DRAMDevice{
			Name:          "DDR4-3200",
			CapacityBytes: 10 * addr.GiB,
			Channels:      2,
			ChannelBits:   64,
			Banks:         8,
			RowBytes:      8 * addr.KiB,
			InterleaveB:   4 * addr.KiB,
			Timing:        DRAMTiming{ClockMHz: 1600, TCAS: 22, TRCD: 22, TRP: 22, TREFI: 12480, TRFC: 560, TWTR: 12},
			Power: DRAMPower{
				VDD: 1.2, IDD0: 52,
				IDD2P: 25, IDD2N: 37,
				IDD3P: 38, IDD3N: 47,
				IDD4W: 130, IDD4R: 143,
				IDD5: 250, IDD6: 30,
			},
		},
		PageBytes:   64 * addr.KiB,
		BlockBytes:  2 * addr.KiB,
		HBMWays:     8,
		SRAMMetaNS:  1.0,
		MoveBatch:   4,
		PageFaultNS: 2000,
		Bumblebee: BumblebeeOptions{
			HotQueueDepth: 8,
			ZombieWindow:  4096,
		},
	}
}

// Validate checks internal consistency of the configuration.
func (s System) Validate() error {
	if s.Core.FreqMHz == 0 {
		return fmt.Errorf("config: core frequency must be positive")
	}
	if s.Core.CPIBase <= 0 {
		return fmt.Errorf("config: CPI base must be positive")
	}
	if s.Core.MLP <= 0 {
		return fmt.Errorf("config: MLP must be positive")
	}
	if len(s.Caches) == 0 {
		return fmt.Errorf("config: at least one cache level required")
	}
	for _, c := range s.Caches {
		if c.SizeBytes == 0 || c.Ways <= 0 || c.LineBytes == 0 {
			return fmt.Errorf("config: cache %q has zero size, ways, or line", c.Name)
		}
		if err := c.CheckWays(); err != nil {
			return err
		}
		if c.SizeBytes%(uint64(c.Ways)*c.LineBytes) != 0 {
			return fmt.Errorf("config: cache %q size not divisible by ways*line", c.Name)
		}
		switch c.Policy {
		case "LRU", "SRRIP", "DRRIP":
		default:
			return fmt.Errorf("config: cache %q has unknown policy %q", c.Name, c.Policy)
		}
	}
	for _, d := range []DRAMDevice{s.HBM, s.DRAM} {
		if d.CapacityBytes == 0 || d.Channels <= 0 || d.Banks <= 0 {
			return fmt.Errorf("config: device %q has zero capacity, channels, or banks", d.Name)
		}
		if d.Timing.ClockMHz == 0 {
			return fmt.Errorf("config: device %q has zero clock", d.Name)
		}
		if err := d.CheckPowersOfTwo(); err != nil {
			return err
		}
	}
	if _, err := addr.NewGeometry(s.PageBytes, s.BlockBytes, s.DRAM.CapacityBytes, s.HBM.CapacityBytes, s.HBMWays); err != nil {
		return fmt.Errorf("config: %v", err)
	}
	if s.Bumblebee.FixedCacheRatio < 0 || s.Bumblebee.FixedCacheRatio > 1 {
		return fmt.Errorf("config: fixed cache ratio %f out of [0,1]", s.Bumblebee.FixedCacheRatio)
	}
	if s.Bumblebee.AllocAllDRAM && s.Bumblebee.AllocAllHBM {
		return fmt.Errorf("config: Alloc-D and Alloc-H are mutually exclusive")
	}
	if s.Bumblebee.HotQueueDepth < 1 || s.Bumblebee.ZombieWindow < 1 || s.MoveBatch < 1 {
		return fmt.Errorf("config: hot queue depth %d, zombie window %d and move batch %d must each be at least 1",
			s.Bumblebee.HotQueueDepth, s.Bumblebee.ZombieWindow, s.MoveBatch)
	}
	return s.Faults.Validate()
}

// Validate checks the fault-injection knobs. Bad values are rejected even
// when injection is disabled, so a config that flips Enabled on later is
// already known-good.
func (f Faults) Validate() error {
	if f.TransientPer1M < 0 || f.FrameFailPer1M < 0 {
		return fmt.Errorf("config: fault rates must be non-negative (transient %f, frame %f)",
			f.TransientPer1M, f.FrameFailPer1M)
	}
	for _, frac := range []struct {
		name string
		v    float64
	}{
		{"fault detect fraction", f.DetectFrac},
		{"retired frame cap", f.MaxRetiredFrac},
		{"throttle duty", f.ThrottleDuty},
	} {
		if frac.v < 0 || frac.v > 1 {
			return fmt.Errorf("config: %s %f out of [0,1]", frac.name, frac.v)
		}
	}
	if f.ThrottleDuty > 0 && f.ThrottlePeriod == 0 {
		return fmt.Errorf("config: throttle duty %f needs a positive throttle period", f.ThrottleDuty)
	}
	return nil
}

// Geometry builds the address geometry for this system.
func (s System) Geometry() (*addr.Geometry, error) {
	return addr.NewGeometry(s.PageBytes, s.BlockBytes, s.DRAM.CapacityBytes, s.HBM.CapacityBytes, s.HBMWays)
}

// Scaled returns a copy of the system shrunk by factor: the Table I
// scaling rule every scaled simulation runs. Both memory capacities and
// every cache level divide by factor, so the LLC:HBM:DRAM ratios hold;
// a cache level stops at four lines per way, which keeps the L1D and L2
// valid caches (at factor 128 a 1 KiB L1D and a 2 KiB L2). Timings and
// energies are unchanged so normalized results keep their shape. A
// factor of 1 or less returns the system as it is. The copy owns its
// Caches slice.
func (s System) Scaled(factor uint64) System {
	if factor <= 1 {
		return s
	}
	out := s
	out.HBM.CapacityBytes /= factor
	out.DRAM.CapacityBytes /= factor
	out.Caches = make([]CacheLevel, len(s.Caches))
	for i, c := range s.Caches {
		c.SizeBytes = max(c.SizeBytes/factor, uint64(c.Ways)*c.LineBytes*4)
		out.Caches[i] = c
	}
	return out
}
