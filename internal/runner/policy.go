package runner

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"
)

// This file is the crash-safe half of the runner: per-cell deadlines,
// cooperative interruption (drain in-flight cells, stop scheduling new
// ones), and deterministic sharding of a sweep's cell space across
// processes. None of it may violate the determinism contract: a shard's
// cell subset is a pure function of (index, shard spec). Every cell runs
// once; one that fails or overruns its deadline is not re-run, because
// re-running a deterministic cell can only reproduce its failure.

// ErrInterrupted marks a sweep that was asked to stop: in-flight cells
// drained to completion, unstarted cells never ran. Callers test for it
// with errors.Is and treat the run as resumable, not failed.
var ErrInterrupted = errors.New("runner: sweep interrupted")

// Policy is everything Map needs beyond the cell function. The zero
// value runs every cell inline with no deadline.
type Policy struct {
	// Timeout is the per-cell deadline; <= 0 disables it (cells run
	// inline on the worker).
	Timeout time.Duration

	// Interrupt, when closed, drains the sweep: workers finish the cell
	// they are running, then stop taking new cells. The sweep returns an
	// *Interrupted error.
	Interrupt <-chan struct{}
}

// interrupted reports whether the interrupt channel is closed.
func (p *Policy) interrupted() bool {
	if p.Interrupt == nil {
		return false
	}
	select {
	case <-p.Interrupt:
		return true
	default:
		return false
	}
}

// Interrupted is the error Map returns for a drained sweep: how far
// it got, plus the real per-cell failures among the cells that did run.
// errors.Is(err, ErrInterrupted) matches it.
type Interrupted struct {
	Done    int    // cells that ran to completion (failures included)
	Skipped int    // cells never started
	Cells   Errors // per-cell failures among the completed cells
}

func (e *Interrupted) Error() string {
	msg := fmt.Sprintf("%v: %d cells done, %d not started", ErrInterrupted, e.Done, e.Skipped)
	if len(e.Cells) > 0 {
		msg += "; " + e.Cells.Error()
	}
	return msg
}

// Unwrap exposes the sentinel to errors.Is.
func (e *Interrupted) Unwrap() error { return ErrInterrupted }

// Shard names one deterministic slice of a sweep's cell space: shard K of
// N (1-based) owns every cell whose global index i satisfies
// i % N == K-1. The zero value owns everything. Because ownership is a
// pure function of the index, N shard runs partition the sweep exactly,
// and `bbreport merge` can reconstruct the unsharded cell order by
// reading the shards round-robin.
type Shard struct {
	K, N int
}

// Active reports whether the shard restricts the cell space at all.
func (s Shard) Active() bool { return s.N > 1 }

// Owns reports whether global cell index i belongs to this shard.
func (s Shard) Owns(i int) bool { return !s.Active() || i%s.N == s.K-1 }

// String renders the shard as "k/n" ("" for the zero value).
func (s Shard) String() string {
	if s.N == 0 {
		return ""
	}
	return strconv.Itoa(s.K) + "/" + strconv.Itoa(s.N)
}

// ParseShard parses a "k/n" shard spec (1 <= k <= n). The empty string
// is the unsharded zero value.
func ParseShard(spec string) (Shard, error) {
	if spec == "" {
		return Shard{}, nil
	}
	k, n, ok := strings.Cut(spec, "/")
	if !ok {
		return Shard{}, fmt.Errorf("shard %q: want k/n", spec)
	}
	ki, err1 := strconv.Atoi(k)
	ni, err2 := strconv.Atoi(n)
	if err1 != nil || err2 != nil || ni < 1 || ki < 1 || ki > ni {
		return Shard{}, fmt.Errorf("shard %q: want 1 <= k <= n", spec)
	}
	return Shard{K: ki, N: ni}, nil
}
