package harness

import (
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/runner"
)

// This file is the crash-safe sweep core every experiment funnels
// through: one helper that applies the harness's execution policy
// (per-cell deadline, classified retries, cooperative interruption),
// deterministic sharding, and the checkpoint journal (skip cells a
// previous invocation already completed; durably record each fresh
// completion) uniformly, so each figure's sweep stays a thin layer of
// cell construction plus aggregation.

// cell names one unit of sweep work: a stable identity (the journal
// key, e.g. "fig8/bumblebee/mcf") and the replay seed recorded next to
// its result.
type cell struct {
	ID   string
	Seed uint64
}

// cellID renders the canonical cell identity: experiment/config/bench.
func cellID(parts ...string) string {
	id := parts[0]
	for _, p := range parts[1:] {
		id += "/" + p
	}
	return id
}

// attemptTracker counts retries per local cell index so the journal can
// record how many attempts a result took.
type attemptTracker struct {
	mu sync.Mutex
	m  map[int]int
}

func (a *attemptTracker) retried(i int) {
	a.mu.Lock()
	a.m[i]++
	a.mu.Unlock()
}

func (a *attemptTracker) attempts(i int) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.m[i] + 1
}

// sweepCells fans cells out under the harness policy and returns their
// results indexed like cells. run(i) computes cell i; per is the number
// of simulations one cell performs (for the planned-cell gauge).
//
// Sharding: only cells the harness's shard owns are run (or resumed);
// the rest stay zero in the output. Checkpointing: when a journal is
// attached, a cell whose ID it already holds is deserialized from the
// journal instead of re-run — the determinism contract makes the two
// indistinguishable — and every fresh completion is appended before the
// cell is considered done, so a journal write failure fails the cell
// rather than silently dropping resumability.
func sweepCells[T any](h *Harness, cells []cell, per int, run func(i int) (T, error)) ([]T, error) {
	owned := make([]int, 0, len(cells))
	for i := range cells {
		if h.Shard.Owns(i) {
			owned = append(owned, i)
		}
	}
	if per < 1 {
		per = 1
	}
	h.Obs.AddPlanned(len(owned) * per)
	if h.Journal != nil && h.Spans.Enabled() && h.Journal.TraceAppend == nil {
		// Thread checkpoint durability onto the request timeline: each
		// journal append becomes a ckpt/append span under the sweep's
		// parent. Set before the workers start, so no append races the
		// hook installation.
		spans, parent := h.Spans, h.SpanParent
		h.Journal.TraceAppend = func(cellID string) func(error) {
			id := spans.Start(parent, "ckpt/append")
			spans.Annotate(id, "cell", cellID)
			return func(err error) {
				if err != nil {
					spans.Fail(id, err)
					return
				}
				spans.End(id)
			}
		}
	}
	tracker := &attemptTracker{m: make(map[int]int)}
	pol := runner.Policy{
		Timeout:   h.CellTimeout,
		Retry:     h.Retry,
		Seed:      runner.Seed("retry-jitter"),
		Interrupt: h.Interrupt,
		OnRetry: func(li, attempt int, err error) {
			tracker.retried(li)
			h.Obs.CellRetried()
			h.log("cell retry", "cell", cells[owned[li]].ID, "attempt", attempt, "err", err.Error())
		},
	}
	out := make([]T, len(cells))
	flat, err := runner.MapPolicy(h.workers(), pol, owned, func(li int, gi int) (T, error) {
		c := cells[gi]
		var zero T
		if h.Journal != nil {
			if rec, ok := h.Journal.Lookup(c.ID); ok {
				var v T
				if jerr := json.Unmarshal(rec.Payload, &v); jerr != nil {
					return zero, fmt.Errorf("checkpoint %s: corrupt payload: %w", c.ID, jerr)
				}
				h.Obs.CellResumed()
				// Resumed cells bypass runStream, so replay the recorded
				// result into the live alert monitor: after a resume the
				// firing set must equal an uninterrupted run's.
				h.alertReplay(v)
				h.log("cell resumed", "cell", c.ID, "attempts", rec.Attempts)
				return v, nil
			}
		}
		v, err := run(gi)
		if err != nil {
			return zero, err
		}
		if h.Journal != nil {
			if jerr := h.Journal.Append(c.ID, c.Seed, tracker.attempts(li), v); jerr != nil {
				return zero, jerr
			}
			h.Obs.Checkpointed(h.Journal.Fsyncs())
		}
		return v, nil
	})
	for li, gi := range owned {
		out[gi] = flat[li]
	}
	return out, err
}

// sweepGrid is sweepCells over a rows × cols cross product (the (config,
// benchmark) shape of the figure sweeps), returning results indexed
// [row][col]. id(r, c) names the cell at (rows[r], cols[c]).
func sweepGrid[R, C, T any](h *Harness, rows []R, cols []C, per int,
	id func(ri, ci int) cell, run func(ri, ci int) (T, error)) ([][]T, error) {
	flat, err := sweepCells(h, gridCells(rows, cols, id), per, func(i int) (T, error) {
		return run(i/len(cols), i%len(cols))
	})
	return byRow(flat, len(rows), len(cols)), err
}

// gridCells lists a rows × cols cross product's cells row-major.
func gridCells[R, C any](rows []R, cols []C, id func(ri, ci int) cell) []cell {
	cells := make([]cell, 0, len(rows)*len(cols))
	for ri := range rows {
		for ci := range cols {
			cells = append(cells, id(ri, ci))
		}
	}
	return cells
}

// byRow reshapes a row-major flat result slice to [row][col].
func byRow[T any](flat []T, rows, cols int) [][]T {
	out := make([][]T, rows)
	for ri := range out {
		out[ri] = flat[ri*cols : (ri+1)*cols]
	}
	return out
}
