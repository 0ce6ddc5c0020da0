// Package faults is the deterministic RAS (reliability, availability,
// serviceability) fault injector for the die-stacked HBM device. It models
// the three field-degradation modes a production hybrid-memory controller
// must survive:
//
//   - transient bit errors, with ECC semantics: most are corrected in-line
//     for a small latency adder, a configurable share is detect-and-retry
//     (the access is re-issued after a backoff);
//   - permanent frame failures, which retire an HBM page frame mid-run —
//     the design on top decides how to evacuate it (Bumblebee migrates
//     mHBM pages out and drops cHBM frames; fault-oblivious baselines keep
//     serving from the dead frame, which the RetiredServes counter exposes);
//   - thermal throttling windows, during which every HBM access pays a
//     bandwidth penalty.
//
// Determinism contract (see internal/runner): the fault schedule is a pure
// function of the injector's seed and the sequence of HBM accesses it
// observes. Each simulation cell owns one injector seeded from the cell's
// stable identity, so sweeps are byte-identical at any -parallel setting
// and a single run reproduces its matrix cell exactly.
package faults

import (
	"sort"

	"repro/internal/config"
	"repro/internal/telemetry"
)

// RAS aggregates the injector's event counters.
type RAS struct {
	HBMAccesses       uint64 // HBM accesses observed by the injector
	ECCCorrected      uint64 // transient errors corrected in-line
	ECCRetried        uint64 // transient errors that forced a detect-retry
	FramesRetired     uint64 // HBM frames permanently retired
	RetiredServes     uint64 // accesses that touched an already-retired frame
	ThrottledAccesses uint64 // accesses inside a thermal throttle window
}

// Injector is the per-run fault source. It is not safe for concurrent use;
// one simulation cell owns one injector, matching the one-goroutine-per-cell
// execution model of the experiment runner.
type Injector struct {
	cfg    config.Faults
	state  uint64 // splitmix64 state
	frames uint64 // total HBM page frames
	capN   uint64 // max frames that may retire

	retired map[uint64]bool
	pending []uint64 // retirements not yet drained by the design

	pTransient float64
	pFail      float64
	throttleN  uint64 // throttled accesses per period

	// Probe, when set, receives an EvFault trace event for every ECC
	// detect-retry and permanent frame retirement. It never influences the
	// fault schedule, so attaching telemetry cannot perturb a run.
	Probe *telemetry.Probe

	ras RAS
}

// New builds an injector over hbmFrames page frames, seeded from the
// caller's per-cell seed. A nil return means the config disables
// injection entirely — callers skip the hook.
func New(cfg config.Faults, hbmFrames uint64, cellSeed uint64) *Injector {
	if !cfg.Enabled {
		return nil
	}
	i := &Injector{
		cfg:        cfg,
		state:      mix(cellSeed, 0),
		frames:     hbmFrames,
		capN:       uint64(cfg.MaxRetiredFrac * float64(hbmFrames)),
		retired:    make(map[uint64]bool),
		pTransient: cfg.TransientPer1M / 1e6,
		pFail:      cfg.FrameFailPer1M / 1e6,
	}
	if cfg.ThrottlePeriod > 0 {
		i.throttleN = uint64(cfg.ThrottleDuty * float64(cfg.ThrottlePeriod))
	}
	return i
}

// mix folds an extra seed into a base seed (FNV-1a style, never zero).
func mix(base, extra uint64) uint64 {
	const prime = 1099511628211
	h := base
	for i := 0; i < 8; i++ {
		h ^= (extra >> (8 * i)) & 0xFF
		h *= prime
	}
	if h == 0 {
		h = prime
	}
	return h
}

// next advances the splitmix64 generator.
func (i *Injector) next() uint64 {
	i.state += 0x9e3779b97f4a7c15
	z := i.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// u01 maps a draw onto [0,1).
func u01(v uint64) float64 { return float64(v>>11) / (1 << 53) }

// Before is invoked once per HBM access, before the device model runs. It
// charges ECC and throttling latency, may fail the frame under access, and
// returns the cycle at which the device access may start plus the number
// of times the access must be re-issued (ECC detect-retry).
func (i *Injector) Before(now uint64, frame uint64) (start uint64, retries int) {
	i.ras.HBMAccesses++
	if i.throttleN > 0 && (i.ras.HBMAccesses-1)%i.cfg.ThrottlePeriod < i.throttleN {
		i.ras.ThrottledAccesses++
		now += i.cfg.ThrottlePenaltyCycles
	}
	if i.retired[frame] {
		i.ras.RetiredServes++
	}
	if i.pTransient > 0 && u01(i.next()) < i.pTransient {
		if u01(i.next()) < i.cfg.DetectFrac {
			i.ras.ECCRetried++
			retries = 1
			i.Probe.Event(now, telemetry.EvFault, frame, 1, 0)
		} else {
			i.ras.ECCCorrected++
			now += i.cfg.CorrectCycles
		}
	}
	if i.pFail > 0 && u01(i.next()) < i.pFail {
		i.fail(now, frame)
	}
	return now, retries
}

// BackoffCycles returns the delay before an ECC detect-retry re-issue.
func (i *Injector) BackoffCycles() uint64 { return i.cfg.RetryBackoffCycles }

// fail retires frame unless it already retired or the cap is reached.
func (i *Injector) fail(now, frame uint64) {
	if i.retired[frame] || uint64(len(i.retired)) >= i.capN {
		return
	}
	i.retired[frame] = true
	i.pending = append(i.pending, frame)
	i.ras.FramesRetired++
	i.Probe.Event(now, telemetry.EvFault, frame, 0, 1)
}

// RetiredFrames returns every retired frame in ascending order.
func (i *Injector) RetiredFrames() []uint64 {
	out := make([]uint64, 0, len(i.retired))
	for f := range i.retired {
		out = append(out, f)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// TakeRetirements drains the frames retired since the last call, in
// failure order. RAS-aware designs poll this to evacuate and quarantine
// frames; fault-oblivious designs never call it and keep serving from dead
// frames (counted by RetiredServes).
func (i *Injector) TakeRetirements() []uint64 {
	if len(i.pending) == 0 {
		return nil
	}
	out := i.pending
	i.pending = nil
	return out
}

// PendingRetirements returns the frames retired but not yet drained via
// TakeRetirements, without consuming them.
func (i *Injector) PendingRetirements() []uint64 {
	return append([]uint64(nil), i.pending...)
}

// Counters returns a copy of the RAS event counters.
func (i *Injector) Counters() RAS { return i.ras }
