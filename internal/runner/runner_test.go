package runner

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSeedStable(t *testing.T) {
	a := Seed("bumblebee", "mcf")
	b := Seed("bumblebee", "mcf")
	if a != b {
		t.Fatalf("seed not stable: %d vs %d", a, b)
	}
	if a == 0 {
		t.Error("seed is zero (reserved for 'unseeded')")
	}
	if Seed("bumblebee", "mcf") == Seed("bumblebee", "wrf") {
		t.Error("different benchmarks collide")
	}
	if Seed("bumblebee", "mcf") == Seed("hybrid2", "mcf") {
		t.Error("different designs collide")
	}
	// The separator must keep part boundaries distinct.
	if Seed("ab", "c") == Seed("a", "bc") {
		t.Error("part boundaries not separated")
	}
	if Seed() == 0 || Seed("") == 0 {
		t.Error("degenerate inputs produced zero seed")
	}
}

func TestSeedFold(t *testing.T) {
	base := Seed("check", "bumblebee", "zipf")
	if SeedFold(base, 0) != SeedFold(base, 0) {
		t.Error("SeedFold not deterministic")
	}
	// Adjacent streams and adjacent bases must not collide or track each
	// other — each (base, stream) pair is an independent seed.
	seen := make(map[uint64]string)
	for stream := uint64(0); stream < 64; stream++ {
		for _, b := range []uint64{base, base + 1, 0} {
			s := SeedFold(b, stream)
			if s == 0 {
				t.Fatalf("SeedFold(%d, %d) = 0 (reserved)", b, stream)
			}
			id := fmt.Sprintf("%d/%d", b, stream)
			if prev, dup := seen[s]; dup {
				t.Fatalf("SeedFold collision: %s and %s -> %d", prev, id, s)
			}
			seen[s] = id
		}
	}
}

func TestMapOrderedAndComplete(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	for _, workers := range []int{1, 3, 8, 200} {
		out, err := Map(workers, Policy{}, items, func(_ int, v int) (int, error) { return v * v, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEmptyAndDefaultWorkers(t *testing.T) {
	out, err := Map(0, Policy{}, nil, func(_ int, v int) (int, error) { return v, nil })
	if err != nil || len(out) != 0 {
		t.Fatalf("empty map: %v %v", out, err)
	}
	if DefaultWorkers() < 1 {
		t.Fatalf("DefaultWorkers = %d", DefaultWorkers())
	}
}

func TestMapErrorCapture(t *testing.T) {
	sentinel := errors.New("boom")
	items := []int{0, 1, 2, 3, 4, 5}
	var ran atomic.Int32
	out, err := Map(4, Policy{}, items, func(_ int, v int) (int, error) {
		ran.Add(1)
		if v%2 == 1 {
			return 0, fmt.Errorf("cell %d: %w", v, sentinel)
		}
		return v + 10, nil
	})
	if err == nil {
		t.Fatal("expected aggregate error")
	}
	var agg Errors
	if !errors.As(err, &agg) {
		t.Fatalf("error type %T", err)
	}
	if len(agg) != 3 {
		t.Fatalf("failures = %d, want 3", len(agg))
	}
	// Failures are ordered by cell index and unwrap to the cause.
	if agg[0].Index != 1 || agg[1].Index != 3 || agg[2].Index != 5 {
		t.Errorf("failure order: %v", agg)
	}
	if !errors.Is(agg[0], sentinel) {
		t.Error("cell error does not unwrap to the cause")
	}
	// One failed cell must not abort the sweep: every cell ran, and the
	// successful cells kept their results.
	if ran.Load() != 6 {
		t.Errorf("ran %d cells, want 6", ran.Load())
	}
	for _, i := range []int{0, 2, 4} {
		if out[i] != i+10 {
			t.Errorf("successful cell %d lost its result: %d", i, out[i])
		}
	}
}

func TestMapPanicRecovered(t *testing.T) {
	items := []int{0, 1, 2}
	out, err := Map(2, Policy{}, items, func(_ int, v int) (string, error) {
		if v == 1 {
			panic("cell exploded")
		}
		return fmt.Sprintf("ok%d", v), nil
	})
	if err == nil {
		t.Fatal("expected panic to surface as error")
	}
	if out[0] != "ok0" || out[2] != "ok2" {
		t.Errorf("surviving cells wrong: %v", out)
	}
}

func TestMapBoundedConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int32
	items := make([]int, 64)
	var mu sync.Mutex
	_, err := Map(workers, Policy{}, items, func(_ int, _ int) (int, error) {
		n := cur.Add(1)
		mu.Lock()
		if n > peak.Load() {
			peak.Store(n)
		}
		mu.Unlock()
		defer cur.Add(-1)
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("peak concurrency %d exceeds bound %d", p, workers)
	}
}

func TestMapTimeoutHungCell(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	items := []int{0, 1, 2, 3}
	out, err := Map(2, Policy{Timeout: 50 * time.Millisecond}, items, func(_ int, v int) (int, error) {
		if v == 1 {
			<-release // hangs far past the deadline
		}
		return v + 10, nil
	})
	if err == nil {
		t.Fatal("expected the hung cell to surface as an error")
	}
	var agg Errors
	if !errors.As(err, &agg) || len(agg) != 1 {
		t.Fatalf("err = %v", err)
	}
	if agg[0].Index != 1 {
		t.Errorf("failed cell %d, want 1", agg[0].Index)
	}
	if !errors.Is(agg[0], context.DeadlineExceeded) {
		t.Errorf("cell error does not unwrap to DeadlineExceeded: %v", agg[0])
	}
	// The hung cell must not block its worker: every other cell completed.
	for _, i := range []int{0, 2, 3} {
		if out[i] != i+10 {
			t.Errorf("cell %d lost its result: %d", i, out[i])
		}
	}
}

func TestMapTimeoutPassthrough(t *testing.T) {
	// A generous deadline changes nothing: results, order and errors are
	// exactly those of Map with no deadline.
	items := []int{0, 1, 2}
	out, err := Map(2, Policy{Timeout: time.Minute}, items, func(_ int, v int) (int, error) {
		if v == 1 {
			return 0, errors.New("boom")
		}
		return v * 2, nil
	})
	var agg Errors
	if !errors.As(err, &agg) || len(agg) != 1 || agg[0].Index != 1 {
		t.Fatalf("err = %v", err)
	}
	if out[0] != 0 || out[2] != 4 {
		t.Errorf("out = %v", out)
	}
}

func TestMapTimeoutPanicRecovered(t *testing.T) {
	out, err := Map(2, Policy{Timeout: time.Minute}, []int{0, 1}, func(_ int, v int) (string, error) {
		if v == 1 {
			panic("cell exploded")
		}
		return "ok", nil
	})
	if err == nil {
		t.Fatal("expected panic to surface as error")
	}
	if out[0] != "ok" {
		t.Errorf("surviving cell lost its result: %v", out)
	}
}
