// Package nohbm implements the paper's normalization baseline: a system
// whose memory is only off-chip DRAM. Every result in the evaluation is
// reported relative to this design ("all our results are normalized to a
// baseline system without HBM").
package nohbm

import (
	"repro/internal/addr"
	"repro/internal/config"
	"repro/internal/hmm"
	"repro/internal/telemetry"
)

// System routes every request to off-chip DRAM.
type System struct {
	dev *hmm.Devices
	cnt hmm.Counters
	os  *hmm.OSMem
}

var _ hmm.MemSystem = (*System)(nil)

// New builds the no-HBM baseline.
func New(sys config.System) (*System, error) {
	dev, err := hmm.NewDevices(sys)
	if err != nil {
		return nil, err
	}
	return &System{
		dev: dev,
		os:  hmm.NewOSMem(dev.Geom.DRAMBytes, dev.Geom.PageSize, sys.PageFaultNS, sys.Core.FreqMHz),
	}, nil
}

// Name implements hmm.MemSystem.
func (s *System) Name() string { return "no-hbm" }

// Devices implements hmm.MemSystem.
func (s *System) Devices() *hmm.Devices { return s.dev }

// Counters implements hmm.MemSystem.
func (s *System) Counters() hmm.Counters {
	c := s.cnt
	c.PageFaults = s.os.Faults
	s.dev.AddRAS(&c)
	return c
}

// Access implements hmm.MemSystem.
func (s *System) Access(now uint64, a addr.Addr, write bool) uint64 {
	s.cnt.Requests++
	s.cnt.ServedDRAM++
	t0 := now
	now = s.os.Admit(now, a)
	done := s.dev.DRAM.Access(now, s.dev.Geom.DRAMLocal(a), 64, write)
	s.dev.Tel.ObserveAccess(telemetry.TierDRAM, t0, done)
	return done
}

// Writeback implements hmm.MemSystem.
func (s *System) Writeback(now uint64, a addr.Addr) {
	s.cnt.Writebacks++
	s.dev.DRAM.Access(now, s.dev.Geom.DRAMLocal(a), 64, true)
}
