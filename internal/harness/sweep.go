package harness

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strings"

	"repro/internal/ckpt"
	"repro/internal/runner"
)

// This file is the crash-safe sweep core every experiment funnels
// through: one helper that applies the harness's execution policy
// (per-cell deadline, cooperative interruption), deterministic sharding,
// and the checkpoint journal (skip cells a previous invocation already
// completed; durably record each fresh completion) uniformly, so each
// figure's sweep stays a thin layer of cell construction plus
// aggregation. A cell that fails or overruns its deadline fails once.

// cell names one unit of sweep work: a stable identity (the journal
// key: a content key such as "bumblebee/mcf/6a09e667f3bcc908" for a
// simulation, see contentKey, or an experiment ID such as "mix/alloy")
// and the replay seed recorded next to its result.
type cell struct {
	ID   string
	Seed uint64
}

// cellID joins the parts of a cell identity with slashes.
func cellID(parts ...string) string { return strings.Join(parts, "/") }

// sweepCells fans cells out under the harness policy and returns their
// results indexed like cells. run(i) computes cell i, one simulation.
// order lists cell indices in the order the workers take them; nil means
// index order. It changes nothing but dispatch: results, journal records
// and failures are still named by cell index.
//
// Sharding: only cells the harness's shard owns are run (or resumed);
// the rest stay zero in the output. Checkpointing: when a journal is
// attached, a cell whose ID it already holds is deserialized from the
// journal instead of re-run — the determinism contract makes the two
// indistinguishable — and every fresh completion is appended before the
// cell is considered done, so a journal write failure fails the cell
// rather than silently dropping resumability.
func sweepCells[T any](h *Harness, cells []cell, order []int, run func(i int) (T, error)) ([]T, error) {
	if order == nil {
		order = make([]int, len(cells))
		for i := range order {
			order[i] = i
		}
	}
	owned := make([]int, 0, len(cells))
	for _, i := range order {
		if h.Shard.Owns(i) {
			owned = append(owned, i)
		}
	}
	h.Obs.AddPlanned(len(owned))
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
	pol := runner.Policy{Timeout: h.CellTimeout, Interrupt: h.Interrupt}
	out := make([]T, len(cells))
	flat, err := runner.Map(h.workers(), pol, owned, func(_ int, gi int) (T, error) {
		c := cells[gi]
		var zero T
		if h.Journal != nil {
			if rec, ok := h.Journal.Lookup(c.ID); ok {
				// A record made under another seed is another cell's
				// result, such as one journaled before the seed rule
				// changed: refuse it rather than mix it in.
				if want := ckpt.FormatSeed(c.Seed); rec.Seed != want {
					return zero, fmt.Errorf("checkpoint %s: recorded with seed %s, the cell's seed is %s", c.ID, rec.Seed, want)
				}
				var v T
				if jerr := json.Unmarshal(rec.Payload, &v); jerr != nil {
					return zero, fmt.Errorf("checkpoint %s: corrupt payload: %w", c.ID, jerr)
				}
				h.Obs.CellResumed()
				// Resumed cells never simulate, so replay the recorded
				// result into the live alert monitor: after a resume the
				// firing set must equal an uninterrupted run's.
				if r, ok := any(v).(RunResult); ok {
					h.feedAlerts(r)
				}
				h.log("cell resumed", "cell", c.ID)
				return v, nil
			}
		}
		v, err := run(gi)
		if err != nil {
			return zero, err
		}
		if h.Journal != nil {
			if jerr := h.Journal.Append(c.ID, c.Seed, v); jerr != nil {
				return zero, jerr
			}
			if h.Journal.Durable() {
				h.Obs.Checkpointed(h.Journal.Fsyncs())
			}
		}
		return v, nil
	})
	for li, gi := range owned {
		out[gi] = flat[li]
	}
	// The runner names failures by dispatch position; name them by cell.
	var es runner.Errors
	var ir *runner.Interrupted
	if errors.As(err, &ir) {
		es = ir.Cells
	} else {
		errors.As(err, &es)
	}
	for _, e := range es {
		e.Index = owned[e.Index]
	}
	slices.SortFunc(es, func(a, b *runner.CellError) int { return cmp.Compare(a.Index, b.Index) })
	return out, err
}

// grid lists at(ri, ci) over a rows × cols cross product (the
// (config, benchmark) shape of the figure sweeps), row-major.
func grid[R, C, T any](rows []R, cols []C, at func(ri, ci int) T) []T {
	out := make([]T, 0, len(rows)*len(cols))
	for ri := range rows {
		for ci := range cols {
			out = append(out, at(ri, ci))
		}
	}
	return out
}

// byRow reshapes a row-major flat result slice to [row][col].
func byRow[T any](flat []T, rows, cols int) [][]T {
	out := make([][]T, rows)
	for ri := range out {
		out[ri] = flat[ri*cols : (ri+1)*cols]
	}
	return out
}
