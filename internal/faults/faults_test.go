package faults

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/config"
)

func cfg() config.Faults {
	f := config.DefaultFaults()
	f.Enabled = true
	f.TransientPer1M = 2000
	f.FrameFailPer1M = 2000
	f.ThrottlePeriod = 100
	f.ThrottleDuty = 0.1
	return f
}

func TestDisabledReturnsNil(t *testing.T) {
	if New(config.DefaultFaults(), 128, 42) != nil {
		t.Fatal("disabled config must build no injector")
	}
}

// The determinism contract: the whole fault schedule is a pure function
// of the seed and the observed access sequence.
func TestScheduleDeterministic(t *testing.T) {
	run := func() (RAS, []uint64, []uint64) {
		inj := New(cfg(), 128, 42)
		starts := make([]uint64, 0, 5000)
		for k := 0; k < 5000; k++ {
			start, retries := inj.Before(uint64(k)*10, uint64(k)%128)
			starts = append(starts, start+uint64(retries))
		}
		return inj.Counters(), inj.RetiredFrames(), starts
	}
	r1, f1, s1 := run()
	r2, f2, s2 := run()
	if r1 != r2 {
		t.Errorf("counters diverge: %+v vs %+v", r1, r2)
	}
	if !reflect.DeepEqual(f1, f2) {
		t.Errorf("retired frames diverge: %v vs %v", f1, f2)
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Errorf("start cycles diverge")
	}
	if r1.ECCCorrected == 0 && r1.ECCRetried == 0 {
		t.Error("no transient events at 2000/1M over 5000 accesses (rate plumbing broken?)")
	}
	if r1.FramesRetired == 0 {
		t.Error("no frames retired at 2000/1M over 5000 accesses")
	}
}

func TestSeedChangesSchedule(t *testing.T) {
	a, b := New(cfg(), 128, 1), New(cfg(), 128, 2)
	var diff bool
	for k := 0; k < 5000; k++ {
		sa, ra := a.Before(0, uint64(k)%128)
		sb, rb := b.Before(0, uint64(k)%128)
		if sa != sb || ra != rb {
			diff = true
		}
	}
	if !diff {
		t.Error("different seeds produced identical schedules")
	}
}

func TestRetirementCapAndDrain(t *testing.T) {
	f := cfg()
	f.FrameFailPer1M = 1e6 // every access fails its frame
	f.MaxRetiredFrac = 0.25
	inj := New(f, 100, 7)
	for k := 0; k < 1000; k++ {
		inj.Before(0, uint64(k)%100)
	}
	if got := inj.Counters().FramesRetired; got != 25 {
		t.Errorf("retired %d frames, want cap 25 (MaxRetiredFrac 0.25 of 100)", got)
	}
	drained := inj.TakeRetirements()
	if len(drained) != 25 {
		t.Errorf("drained %d, want 25", len(drained))
	}
	retired := inj.RetiredFrames()
	for _, fr := range drained {
		if _, ok := slices.BinarySearch(retired, fr); !ok {
			t.Errorf("drained frame %d not marked retired", fr)
		}
	}
	if got := inj.TakeRetirements(); got != nil {
		t.Errorf("second drain returned %v, want nil", got)
	}
	if got := inj.PendingRetirements(); len(got) != 0 {
		t.Errorf("pending after drain: %v", got)
	}
}

func TestThrottleWindows(t *testing.T) {
	f := config.DefaultFaults()
	f.Enabled = true
	f.ThrottlePeriod = 10
	f.ThrottleDuty = 0.3
	f.ThrottlePenaltyCycles = 8
	inj := New(f, 16, 3)
	throttled := 0
	for k := 0; k < 100; k++ {
		start, _ := inj.Before(1000, 0)
		if start != 1000 {
			throttled++
			if start != 1008 {
				t.Fatalf("throttle penalty start = %d, want 1008", start)
			}
		}
	}
	// Duty 0.3 of period 10: exactly the first 3 accesses of every 10.
	if throttled != 30 {
		t.Errorf("throttled %d of 100 accesses, want exactly 30", throttled)
	}
	if got := inj.Counters().ThrottledAccesses; got != 30 {
		t.Errorf("ThrottledAccesses = %d, want 30", got)
	}
}

func TestRetiredServesCounted(t *testing.T) {
	f := cfg()
	f.TransientPer1M = 0
	f.FrameFailPer1M = 1e6
	inj := New(f, 4, 9)
	inj.Before(0, 2) // retires frame 2
	if got := inj.RetiredFrames(); !slices.Equal(got, []uint64{2}) {
		t.Fatalf("retired frames %v, want [2] at rate 1", got)
	}
	before := inj.Counters().RetiredServes
	inj.Before(0, 2)
	if got := inj.Counters().RetiredServes; got != before+1 {
		t.Errorf("RetiredServes = %d, want %d", got, before+1)
	}
}
