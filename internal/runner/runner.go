// Package runner is the parallel experiment engine behind every sweep in
// the repository: it fans a matrix of independent simulation cells out
// across a bounded pool of worker goroutines and assembles the results in
// input order, so a sweep's output is bit-identical whether it ran on one
// worker or sixty-four.
//
// Determinism contract. A cell's result may depend only on its inputs —
// never on scheduling. Each stochastic component therefore derives its RNG
// seed from the cell's stable identity via Seed (an FNV-1a hash of the
// design and benchmark names), not from a shared generator, wall-clock
// time, or worker index. The harness applies this rule in syntheticCell;
// anything new that consumes randomness inside a cell must follow it.
//
// Error contract. One failed cell must not abort the sweep: every cell
// runs to completion (panics included — they are recovered and reported as
// that cell's error), and Map returns the full ordered output slice plus
// an Errors aggregate describing every failure.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"
)

// fnv1a constants (64-bit).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Seed derives a deterministic 64-bit RNG seed from the identity of an
// experiment cell: FNV-1a over the parts with a separator folded in
// between, so Seed("ab", "c") differs from Seed("a", "bc"). The same parts
// always produce the same seed, regardless of worker count or scheduling
// order — this is what makes parallel sweeps bit-identical to serial ones.
// The result is never zero (zero means "unseeded" to callers).
func Seed(parts ...string) uint64 {
	h := uint64(fnvOffset64)
	for _, p := range parts {
		for i := 0; i < len(p); i++ {
			h ^= uint64(p[i])
			h *= fnvPrime64
		}
		h ^= 0xFF // part separator, outside the byte range of UTF-8 text
		h *= fnvPrime64
	}
	if h == 0 {
		h = fnvOffset64
	}
	return h
}

// SeedFold derives an independent sub-stream seed from a base Seed and a
// small stream index, via one splitmix64 finalization step. Adjacent
// indices decorrelate fully, so a cell can split one identity-derived
// seed into workload, fault-injector, etc. streams without the streams
// tracking each other. Like Seed, the result is never zero.
func SeedFold(seed, stream uint64) uint64 {
	z := seed + 0x9e3779b97f4a7c15*(stream+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = fnvOffset64
	}
	return z
}

// DefaultWorkers is the worker count used when a caller passes workers <= 0:
// one worker per schedulable CPU.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// CellInfo renders a cell's replay identity — its RNG seed and the
// telemetry epoch it ran under — for inclusion in cell error strings, so a
// failing cell can be re-run exactly from the log alone (the seed pins the
// workload and fault streams; the epoch pins the sampling cadence).
func CellInfo(seed, telemetryEpoch uint64) string {
	return fmt.Sprintf("seed=0x%016x telemetry-epoch=%d", seed, telemetryEpoch)
}

// CellError records the failure of one cell of a sweep.
type CellError struct {
	Index     int  // position in the input slice
	Attempts  int  // times the cell ran before the sweep gave up (>= 1)
	Transient bool // whether the final error was classified retryable
	Err       error
}

func (e *CellError) Error() string {
	if e.Attempts > 1 {
		return fmt.Sprintf("cell %d (after %d attempts): %v", e.Index, e.Attempts, e.Err)
	}
	return fmt.Sprintf("cell %d: %v", e.Index, e.Err)
}

// Unwrap exposes the underlying error to errors.Is/As.
func (e *CellError) Unwrap() error { return e.Err }

// Errors aggregates every failed cell of a sweep, ordered by cell index.
type Errors []*CellError

func (es Errors) Error() string {
	if len(es) == 0 {
		return "runner: no errors"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "runner: %d sweep cell(s) failed: %v", len(es), es[0].Err)
	for _, e := range es[1:] {
		fmt.Fprintf(&b, "; %v", e.Err)
	}
	return b.String()
}

// Unwrap exposes every cell error to errors.Is/As traversal.
func (es Errors) Unwrap() []error {
	out := make([]error, len(es))
	for i, e := range es {
		out[i] = e
	}
	return out
}

// or returns the aggregate as an error, or nil when every cell succeeded.
func (es Errors) or() error {
	if len(es) == 0 {
		return nil
	}
	return es
}

// Map runs fn over every item with at most workers goroutines (workers <= 0
// means DefaultWorkers) and returns the outputs in input order. Every cell
// runs even when others fail; the returned error is nil when all cells
// succeeded and an Errors aggregate otherwise (failed cells hold their
// zero output value). A panic inside fn is recovered and reported as that
// cell's error, so one bad cell cannot take down the whole sweep.
func Map[I, O any](workers int, items []I, fn func(i int, item I) (O, error)) ([]O, error) {
	return MapTimeout(workers, 0, items, fn)
}

// MapTimeout is Map with a per-cell deadline. timeout <= 0 disables the
// deadline (cells run inline on the worker, exactly like Map). With a
// deadline, each cell runs in its own goroutine; a cell that overruns
// surfaces as a CellError wrapping context.DeadlineExceeded and the sweep
// moves on instead of deadlocking. The overrunning goroutine itself
// cannot be killed — it is abandoned and its eventual result discarded
// (it only ever writes to a private buffered channel, so it cannot race
// with the assembled output, and the buffer lets it exit the moment fn
// returns instead of blocking forever on the send).
func MapTimeout[I, O any](workers int, timeout time.Duration, items []I, fn func(i int, item I) (O, error)) ([]O, error) {
	return MapPolicy(workers, Policy{Timeout: timeout}, items, fn)
}

// MapPolicy is Map under a full execution policy: per-cell deadline,
// bounded retries with classified backoff (only transient failures
// retry; permanent ones fail fast on attempt one), and cooperative
// interruption (workers drain their in-flight cell, then stop). See
// Policy. Like Map, the outputs come back in input order and every
// failure is aggregated; an interrupted sweep returns an *Interrupted
// error that errors.Is-matches ErrInterrupted.
func MapPolicy[I, O any](workers int, pol Policy, items []I, fn func(i int, item I) (O, error)) ([]O, error) {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > len(items) {
		workers = len(items)
	}
	out := make([]O, len(items))
	errs := make([]*CellError, len(items))
	done := make([]bool, len(items))
	if len(items) == 0 {
		return out, nil
	}
	maxAttempts := pol.Retry.MaxAttempts
	if maxAttempts < 1 {
		maxAttempts = 1
	}
	var (
		next int
		mu   sync.Mutex
		wg   sync.WaitGroup
	)
	// runOnce runs cell i once, inline, converting a panic into an error.
	runOnce := func(i int) (v O, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic: %v", r)
			}
		}()
		return fn(i, items[i])
	}
	type result struct {
		v   O
		err error
	}
	// Per-worker deadline state, reused across the worker's cells so the
	// inner loop does not allocate a channel or timer per cell. The
	// channel is buffered so an abandoned (timed-out) cell's eventual
	// send never blocks and its goroutine always exits; once a cell is
	// abandoned its channel belongs to that goroutine and the worker
	// switches to a fresh one.
	type workerState struct {
		ch    chan result
		timer *time.Timer
	}
	// attempt runs cell i once under the policy deadline and returns its
	// error (nil on success, in which case out[i] is set).
	attempt := func(st *workerState, i int) error {
		if pol.Timeout <= 0 {
			v, err := runOnce(i)
			if err != nil {
				return err
			}
			out[i] = v
			return nil
		}
		if st.ch == nil {
			st.ch = make(chan result, 1)
		}
		ch := st.ch
		go func() {
			defer func() {
				if r := recover(); r != nil {
					ch <- result{err: fmt.Errorf("panic: %v", r)}
				}
			}()
			v, err := fn(i, items[i])
			ch <- result{v: v, err: err}
		}()
		if st.timer == nil {
			st.timer = time.NewTimer(pol.Timeout)
		} else {
			st.timer.Reset(pol.Timeout)
		}
		select {
		case res := <-ch:
			// Drain the timer before the next Reset: if it fired in the
			// same instant the result arrived, the stale expiry would
			// otherwise sit in timer.C and instantly "time out" the
			// worker's next cell.
			if !st.timer.Stop() {
				<-st.timer.C
			}
			if res.err != nil {
				return res.err
			}
			out[i] = res.v
			return nil
		case <-st.timer.C:
			st.ch = nil // the abandoned goroutine keeps the old channel
			return fmt.Errorf("timed out after %v: %w", pol.Timeout, context.DeadlineExceeded)
		}
	}
	// runCell is the retry loop around attempt.
	runCell := func(st *workerState, i int) {
		for n := 1; ; n++ {
			err := attempt(st, i)
			if err == nil {
				return
			}
			transient := IsTransient(err)
			if !transient || n >= maxAttempts || pol.interrupted() {
				errs[i] = &CellError{Index: i, Attempts: n, Transient: transient, Err: err}
				return
			}
			if pol.OnRetry != nil {
				pol.OnRetry(i, n, err)
			}
			pol.doSleep(pol.backoffFor(i, n))
			if pol.interrupted() {
				errs[i] = &CellError{Index: i, Attempts: n, Transient: transient, Err: err}
				return
			}
		}
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			var st workerState
			for {
				if pol.interrupted() {
					return
				}
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(items) {
					return
				}
				runCell(&st, i)
				mu.Lock()
				done[i] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	var agg Errors
	for _, e := range errs {
		if e != nil {
			agg = append(agg, e)
		}
	}
	if pol.interrupted() {
		completed, skipped := 0, 0
		for i := range done {
			if done[i] {
				completed++
			} else {
				skipped++
			}
		}
		if skipped > 0 {
			return out, &Interrupted{Done: completed, Skipped: skipped, Cells: agg}
		}
	}
	return out, agg.or()
}
