package runner

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestInterruptDrains: closing the interrupt channel mid-sweep lets
// in-flight cells finish, skips the rest, and surfaces ErrInterrupted
// with an accurate done/skipped split.
func TestInterruptDrains(t *testing.T) {
	interrupt := make(chan struct{})
	items := make([]int, 64)
	var completed atomic.Int32
	gate := make(chan struct{})
	var once sync.Once
	out, err := Map(2, Policy{Interrupt: interrupt}, items, func(i, item int) (int, error) {
		once.Do(func() {
			close(interrupt) // interrupt while the first cells are in flight
			close(gate)
		})
		<-gate
		completed.Add(1)
		return i + 1, nil
	})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	var intr *Interrupted
	if !errors.As(err, &intr) {
		t.Fatalf("err %v is not *Interrupted", err)
	}
	if intr.Done != int(completed.Load()) {
		t.Fatalf("Interrupted.Done = %d, cells actually completed = %d", intr.Done, completed.Load())
	}
	if intr.Done+intr.Skipped != len(items) {
		t.Fatalf("done %d + skipped %d != %d cells", intr.Done, intr.Skipped, len(items))
	}
	if intr.Skipped == 0 {
		t.Fatal("interrupt drained nothing: every cell ran")
	}
	// Completed cells keep their results; the drain must not zero them.
	n := 0
	for i, v := range out {
		if v != 0 {
			n++
			if v != i+1 {
				t.Fatalf("out[%d] = %d, want %d", i, v, i+1)
			}
		}
	}
	if n != intr.Done {
		t.Fatalf("%d non-zero outputs, want %d", n, intr.Done)
	}
}

// TestInterruptBeforeStart: a sweep entered with the interrupt already
// closed runs nothing.
func TestInterruptBeforeStart(t *testing.T) {
	interrupt := make(chan struct{})
	close(interrupt)
	var calls atomic.Int32
	_, err := Map(4, Policy{Interrupt: interrupt}, make([]int, 16), func(i, item int) (int, error) {
		calls.Add(1)
		return 0, nil
	})
	if calls.Load() != 0 {
		t.Fatalf("%d cells ran under a pre-closed interrupt, want 0", calls.Load())
	}
	var intr *Interrupted
	if !errors.As(err, &intr) || intr.Skipped != 16 {
		t.Fatalf("err = %v, want Interrupted with 16 skipped", err)
	}
}

// TestMapTimeoutNoGoroutineLeak: an abandoned (timed-out) cell's
// goroutine exits as soon as its fn returns — the buffered completion
// channel means the send never blocks, so hung-then-released cells do not
// accumulate goroutines.
func TestMapTimeoutNoGoroutineLeak(t *testing.T) {
	release := make(chan struct{})
	before := runtime.NumGoroutine()
	_, err := Map(4, Policy{Timeout: 20 * time.Millisecond}, make([]int, 8), func(i, item int) (int, error) {
		<-release // every cell hangs past the deadline
		return 0, nil
	})
	var agg Errors
	if !errors.As(err, &agg) || len(agg) != 8 {
		t.Fatalf("err = %v, want 8 timed-out cells", err)
	}
	close(release) // unblock the abandoned goroutines
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.Gosched()
		// Allow slack for unrelated runtime goroutines; the 8 abandoned
		// workers are the signal.
		if g := runtime.NumGoroutine(); g <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after release", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestMapTimeoutNoStaleTimerTimeout: a worker reuses one deadline timer
// across its cells, and no cell may inherit the previous cell's
// deadline. Every cell takes 60% of the deadline, so a timer that cell i
// left armed fires 40% of the deadline into cell i+1, while that cell
// still has 20% of the deadline to run; a correctly re-armed timer has
// 40% of the deadline to spare. Both margins are tens of milliseconds,
// so scheduler noise cannot flip the outcome either way.
func TestMapTimeoutNoStaleTimerTimeout(t *testing.T) {
	timeout := 100 * time.Millisecond
	items := make([]int, 6)
	_, err := Map(1, Policy{Timeout: timeout}, items, func(i, item int) (int, error) {
		time.Sleep(timeout * 6 / 10)
		return i, nil
	})
	if err != nil {
		t.Fatalf("spurious timeout from stale timer state: %v", err)
	}
}

// TestShardPartition: every index is owned by exactly one shard, and the
// zero shard owns everything.
func TestShardPartition(t *testing.T) {
	const n = 3
	shards := make([]Shard, n)
	for k := 1; k <= n; k++ {
		shards[k-1] = Shard{K: k, N: n}
	}
	for i := 0; i < 100; i++ {
		owners := 0
		for _, s := range shards {
			if s.Owns(i) {
				owners++
			}
		}
		if owners != 1 {
			t.Fatalf("index %d owned by %d shards, want exactly 1", i, owners)
		}
		if !(Shard{}).Owns(i) {
			t.Fatalf("zero shard does not own index %d", i)
		}
	}
}

func TestParseShard(t *testing.T) {
	good := map[string]Shard{
		"":    {},
		"1/1": {K: 1, N: 1},
		"2/3": {K: 2, N: 3},
	}
	for spec, want := range good {
		got, err := ParseShard(spec)
		if err != nil || got != want {
			t.Errorf("ParseShard(%q) = %v, %v; want %v", spec, got, err, want)
		}
	}
	for _, spec := range []string{"0/3", "4/3", "x/3", "3", "1/0", "-1/2", "1/x"} {
		if _, err := ParseShard(spec); err == nil {
			t.Errorf("ParseShard(%q) accepted", spec)
		}
	}
	if s := (Shard{K: 2, N: 3}).String(); s != "2/3" {
		t.Errorf("String() = %q, want 2/3", s)
	}
	if s := (Shard{}).String(); s != "" {
		t.Errorf("zero String() = %q, want empty", s)
	}
}

// TestMapPolicyDeterministicOutput: a deadline and an interrupt channel
// that never fires preserve the runner's core contract — output identical
// at any worker count, failures included.
func TestMapPolicyDeterministicOutput(t *testing.T) {
	items := make([]int, 40)
	for i := range items {
		items[i] = i
	}
	pol := Policy{Timeout: time.Minute, Interrupt: make(chan struct{})}
	run := func(workers int) ([]int, error) {
		return Map(workers, pol, items, func(i, item int) (int, error) {
			if i%3 == 0 {
				return 0, fmt.Errorf("cell %d fails", i)
			}
			return item * item, nil
		})
	}
	a, errA := run(1)
	b, errB := run(8)
	if errA == nil || errB == nil || errA.Error() != errB.Error() {
		t.Fatalf("errors differ across worker counts: %v vs %v", errA, errB)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("output differs at %d: %d vs %d", i, a[i], b[i])
		}
	}
}
