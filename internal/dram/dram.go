// Package dram implements a first-order timing and dynamic-energy model of
// a DRAM-like device (off-chip DDR4 or die-stacked HBM2), in the spirit of
// DRAMSim2: per-channel data buses, per-bank row-buffer state, and
// tCAS/tRCD/tRP command timing, with a Micron-style IDD current model for
// energy. Time is measured in CPU cycles so that every component of the
// simulator shares one clock.
package dram

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/addr"
	"repro/internal/config"
)

const rowClosed = -1

type bank struct {
	readyAt uint64 // CPU cycle when the bank can accept the next command
	openRow int64  // currently open row, or rowClosed
}

type channel struct {
	busUntil  uint64 // CPU cycle when the data bus frees up
	banks     []bank
	lastWrite bool // previous burst was a write (turnaround tracking)
	// nextRefresh is the CPU cycle of the channel's next all-bank
	// refresh; requests arriving during a refresh window stall behind it.
	nextRefresh uint64
}

// Stats aggregates the traffic and energy counters of one device.
type Stats struct {
	Reads      uint64 // read bursts
	Writes     uint64 // write bursts
	ReadBytes  uint64
	WriteBytes uint64
	Activates  uint64 // row activations (row-buffer misses)
	RowHits    uint64

	Refreshes uint64 // all-bank refresh operations performed

	ActEnergyPJ   float64
	ReadEnergyPJ  float64
	WriteEnergyPJ float64
	RefEnergyPJ   float64

	BusBusyCycles uint64 // total data-bus occupancy across channels
}

// TotalBytes returns read plus write traffic.
func (s Stats) TotalBytes() uint64 { return s.ReadBytes + s.WriteBytes }

// DynamicEnergyPJ returns the total dynamic energy in picojoules
// (refresh energy is accounted as static/background, not here).
func (s Stats) DynamicEnergyPJ() float64 {
	return s.ActEnergyPJ + s.ReadEnergyPJ + s.WriteEnergyPJ
}

// Device is a simulated DRAM-like device. Addresses passed to Access are
// device-local byte addresses in [0, CapacityBytes).
type Device struct {
	cfg      config.DRAMDevice
	channels []channel

	// Precomputed timing in CPU cycles.
	tCAS, tRCD, tRP   uint64
	tREFI, tRFC, tWTR uint64
	cyclesPerByte     float64 // data-bus occupancy per byte, CPU cycles

	// Precomputed per-event energies in pJ.
	actPJ      float64
	rwPJPerNs  struct{ read, write float64 } // power above standby, mW
	nsPerCycle float64
	burstBytes uint64

	// Shift/mask address decode: New refuses a device whose interleave
	// granularity, channel count, row size or bank count is not a power
	// of two.
	ileaveShift uint
	ileaveMask  uint64
	chShift     uint
	chMask      uint64
	rowShift    uint
	bankShift   uint
	bankMask    uint64
	// transfer64 is the precomputed bus occupancy of a 64 B burst.
	transfer64 uint64

	// backgroundMW is the standby-plus-refresh power of the whole
	// device in mW, used for the static-energy estimate.
	backgroundMW float64
	// refPJ is the energy of one all-bank refresh.
	refPJ float64

	stats Stats
}

// New builds a device model clocked against a CPU at cpuFreqMHz.
func New(cfg config.DRAMDevice, cpuFreqMHz uint64) (*Device, error) {
	if err := cfg.CheckPowersOfTwo(); err != nil {
		return nil, err
	}
	if cfg.Timing.ClockMHz == 0 || cpuFreqMHz == 0 {
		return nil, fmt.Errorf("dram: %s: clocks must be positive", cfg.Name)
	}
	d := &Device{cfg: cfg}
	d.channels = make([]channel, cfg.Channels)
	for i := range d.channels {
		d.channels[i].banks = make([]bank, cfg.Banks)
		for b := range d.channels[i].banks {
			d.channels[i].banks[b].openRow = rowClosed
		}
	}

	cpuPerDev := float64(cpuFreqMHz) / float64(cfg.Timing.ClockMHz)
	toCPU := func(devClocks uint64) uint64 {
		return uint64(math.Ceil(float64(devClocks) * cpuPerDev))
	}
	d.tCAS = toCPU(cfg.Timing.TCAS)
	d.tRCD = toCPU(cfg.Timing.TRCD)
	d.tRP = toCPU(cfg.Timing.TRP)
	d.tREFI = toCPU(cfg.Timing.TREFI)
	d.tRFC = toCPU(cfg.Timing.TRFC)
	d.tWTR = toCPU(cfg.Timing.TWTR)
	for i := range d.channels {
		d.channels[i].nextRefresh = d.tREFI
	}

	// Double data rate: bytes per device clock = width/8 * 2.
	bytesPerDevClock := float64(cfg.ChannelBits) / 8 * 2
	d.cyclesPerByte = cpuPerDev / bytesPerDevClock
	d.burstBytes = 64 // one DRAM burst transfers one 64 B beat group

	d.transfer64 = uint64(math.Ceil(64 * d.cyclesPerByte))
	if d.transfer64 == 0 {
		d.transfer64 = 1
	}
	d.ileaveShift, d.ileaveMask = log2(cfg.InterleaveB), cfg.InterleaveB-1
	d.chShift, d.chMask = log2(uint64(cfg.Channels)), uint64(cfg.Channels-1)
	d.rowShift = log2(cfg.RowBytes)
	d.bankShift, d.bankMask = log2(uint64(cfg.Banks)), uint64(cfg.Banks-1)

	d.nsPerCycle = 1e3 / float64(cpuFreqMHz)
	devClockNS := 1e3 / float64(cfg.Timing.ClockMHz)

	// Micron power model, first order. Energy per activate+precharge pair:
	// VDD * (IDD0 - IDD3N) * tRC, with tRC ~ tRCD + tCAS + tRP in device
	// clocks. mA * V * ns = pJ.
	p := cfg.Power
	tRCns := float64(cfg.Timing.TRCD+cfg.Timing.TCAS+cfg.Timing.TRP) * devClockNS
	d.actPJ = p.VDD * (p.IDD0 - p.IDD3N) * tRCns
	if d.actPJ < 0 {
		d.actPJ = 0
	}
	// Read/write burst power above active standby, in mW (= mA*V).
	// The datasheet IDD4 currents describe the whole device transferring
	// at full rate across all channels, so one channel's occupancy costs
	// a per-channel share; energy accrues per nanosecond of bus
	// occupancy.
	d.rwPJPerNs.read = p.VDD * (p.IDD4R - p.IDD3N) / float64(cfg.Channels)
	d.rwPJPerNs.write = p.VDD * (p.IDD4W - p.IDD3N) / float64(cfg.Channels)

	// Background (static) power: precharge standby plus the refresh
	// average. DRAM refreshes all rows every 64 ms; the refresh current
	// IDD5 applies during tRFC bursts, roughly 5% duty at these
	// densities, so background ~ VDD*(IDD2N + 0.05*IDD5). This powers
	// the paper's side-claim that shorter runtimes save static energy.
	d.backgroundMW = p.VDD * (p.IDD2N + 0.05*p.IDD5)
	// One all-bank refresh: VDD * (IDD5-IDD3N) * tRFC.
	d.refPJ = p.VDD * (p.IDD5 - p.IDD3N) * float64(cfg.Timing.TRFC) * devClockNS
	if d.refPJ < 0 {
		d.refPJ = 0
	}
	return d, nil
}

// log2 returns the base-2 logarithm of n, a power of two.
func log2(n uint64) uint { return uint(bits.TrailingZeros64(n)) }

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// BackgroundEnergyPJ estimates the static (standby + refresh) energy
// spent over a run of the given CPU-cycle length. Unlike the dynamic
// counters this is derived, not accumulated: it depends only on runtime,
// which is exactly the paper's point — a faster design also saves
// static energy.
func (d *Device) BackgroundEnergyPJ(cycles uint64) float64 {
	return d.backgroundMW * float64(cycles) * d.nsPerCycle
}

// Config returns the device configuration.
func (d *Device) Config() config.DRAMDevice { return d.cfg }

// Stats returns a copy of the accumulated counters.
func (d *Device) Stats() Stats { return d.stats }

// locate maps a device-local address to (channel, bank, row). The
// interleave chunk number's low bits pick the channel; the address within
// the channel, with those bits removed, splits into row and bank.
func (d *Device) locate(a addr.Addr) (ch, bk int, row int64) {
	ileave := uint64(a) >> d.ileaveShift
	local := (ileave>>d.chShift)<<d.ileaveShift | uint64(a)&d.ileaveMask
	rowGlobal := local >> d.rowShift
	return int(ileave & d.chMask), int(rowGlobal & d.bankMask), int64(rowGlobal >> d.bankShift)
}

// Access performs a read or write of length bytes starting at device-local
// address a, beginning no earlier than CPU cycle now. It returns the cycle
// at which the last byte has transferred. Large transfers are split at the
// channel-interleave granularity so that page migrations exercise all
// channels, exactly like a real burst-chopped transfer.
func (d *Device) Access(now uint64, a addr.Addr, bytes uint64, write bool) uint64 {
	if bytes == 0 {
		return now
	}
	if uint64(a)&d.ileaveMask+bytes <= d.cfg.InterleaveB {
		// Fast path: the whole transfer fits in one interleave chunk.
		return d.burst(now, a, bytes, write)
	}
	done := now
	for off := uint64(0); off < bytes; {
		cur := addr.Addr(uint64(a) + off)
		// Chunk ends at the next interleave boundary.
		inChunk := min(d.cfg.InterleaveB-uint64(cur)&d.ileaveMask, bytes-off)
		end := d.burst(now, cur, inChunk, write)
		if end > done {
			done = end
		}
		off += inChunk
	}
	return done
}

// burst transfers one chunk confined to a single channel.
func (d *Device) burst(now uint64, a addr.Addr, bytes uint64, write bool) uint64 {
	chIdx, bkIdx, row := d.locate(a)
	ch := &d.channels[chIdx]
	bk := &ch.banks[bkIdx]

	start := now
	if bk.readyAt > start {
		start = bk.readyAt
	}

	// All-bank refresh: when the request lands past the channel's next
	// refresh deadline, the refresh runs first (tRFC) and closes every
	// row. Refreshes the request "skipped over" are assumed to have run
	// during the idle gap.
	if d.tREFI > 0 && start >= ch.nextRefresh {
		start = maxU64(start, ch.nextRefresh) + d.tRFC
		for i := range ch.banks {
			ch.banks[i].openRow = rowClosed
		}
		d.stats.Refreshes++
		d.stats.RefEnergyPJ += d.refPJ
		// Schedule the next refresh after the one we just performed.
		for ch.nextRefresh <= start {
			ch.nextRefresh += d.tREFI
		}
	}

	// Write-to-read turnaround: switching the bus direction after a
	// write costs tWTR.
	if !write && ch.lastWrite && d.tWTR > 0 {
		start += d.tWTR
	}
	ch.lastWrite = write

	var cmdLat uint64
	switch {
	case bk.openRow == row:
		cmdLat = d.tCAS
		d.stats.RowHits++
	case bk.openRow == rowClosed:
		cmdLat = d.tRCD + d.tCAS
		d.activate()
	default:
		cmdLat = d.tRP + d.tRCD + d.tCAS
		d.activate()
	}
	bk.openRow = row

	transfer := d.transfer64
	if bytes != 64 {
		transfer = uint64(math.Ceil(float64(bytes) * d.cyclesPerByte))
		if transfer == 0 {
			transfer = 1
		}
	}
	busStart := start + cmdLat
	if ch.busUntil > busStart {
		busStart = ch.busUntil
	}
	end := busStart + transfer
	ch.busUntil = end
	bk.readyAt = end
	d.stats.BusBusyCycles += transfer

	ns := float64(transfer) * d.nsPerCycle
	if write {
		d.stats.Writes++
		d.stats.WriteBytes += bytes
		d.stats.WriteEnergyPJ += d.rwPJPerNs.write * ns
	} else {
		d.stats.Reads++
		d.stats.ReadBytes += bytes
		d.stats.ReadEnergyPJ += d.rwPJPerNs.read * ns
	}
	return end
}

func (d *Device) activate() {
	d.stats.Activates++
	d.stats.ActEnergyPJ += d.actPJ
}

// UnloadedLatency returns the CPU-cycle latency of a closed-row read of
// burstBytes with no contention — useful for calibration and tests.
func (d *Device) UnloadedLatency() uint64 {
	return d.tRCD + d.tCAS + uint64(math.Ceil(float64(d.burstBytes)*d.cyclesPerByte))
}

// PeakBytesPerCycle returns the aggregate peak data-bus throughput in
// bytes per CPU cycle.
func (d *Device) PeakBytesPerCycle() float64 {
	return float64(d.cfg.Channels) / d.cyclesPerByte
}
