package tracecodec

import (
	"math"

	"repro/internal/addr"
	"repro/internal/trace"
)

// Stream adapts a Reader into the simulator's trace.BatchStream: each
// record's cycle delta against its predecessor becomes the access's
// instruction Gap (the interval core model's notion of compute between
// memory references). The first record gets Gap 1 — its absolute cycle
// is a capture-start offset, not elapsed work — and non-monotonic or
// overflowing deltas clamp to [0, MaxUint32].
//
// The adapter is bounded-memory end to end: NextBatch decodes straight
// into the caller's slice, so cpu.Run's pooled ingestion buffers (see
// harness.Run) are the only per-replay allocation.
type Stream struct {
	r         Reader
	prevCycle uint64
	first     bool
	n         uint64
}

// NewStream wraps r for replay through cpu.Run.
func NewStream(r Reader) *Stream {
	return &Stream{r: r, first: true}
}

func (s *Stream) gap(cycle uint64) uint32 {
	if s.first {
		s.first = false
		s.prevCycle = cycle
		return 1
	}
	prev := s.prevCycle
	s.prevCycle = cycle
	if cycle <= prev {
		return 0 // non-monotonic capture: no compute between references
	}
	if d := cycle - prev; d <= math.MaxUint32 {
		return uint32(d)
	}
	return math.MaxUint32
}

// Next implements trace.Stream.
func (s *Stream) Next() (trace.Access, bool) {
	rec, ok := s.r.Next()
	if !ok {
		return trace.Access{}, false
	}
	s.n++
	return trace.Access{Addr: addr.Addr(rec.Addr), Write: rec.Write, Gap: s.gap(rec.Cycle)}, true
}

// NextBatch implements trace.BatchStream.
func (s *Stream) NextBatch(dst []trace.Access) int {
	n := 0
	for n < len(dst) {
		a, ok := s.Next()
		if !ok {
			break
		}
		dst[n] = a
		n++
	}
	return n
}

// Count reports how many accesses the stream has produced so far.
func (s *Stream) Count() uint64 { return s.n }

// Err implements trace.Failable, surfacing decode damage to cpu.Run so
// a torn trace fails the replay instead of truncating it.
func (s *Stream) Err() error { return s.r.Err() }

// AccessWriter adapts a Writer into a sink for trace.Access streams
// (what the synthetic generators produce): cycles
// are reconstructed by accumulating each access's instruction gap, the
// exact inverse of Stream's gap derivation, so gen-then-replay presents
// the generator's stream faithfully.
type AccessWriter struct {
	w     Writer
	cycle uint64
	n     uint64
}

// NewAccessWriter wraps w.
func NewAccessWriter(w Writer) *AccessWriter {
	return &AccessWriter{w: w}
}

// Write encodes one access.
func (a *AccessWriter) Write(acc trace.Access) error {
	a.cycle += uint64(acc.Gap)
	a.n++
	return a.w.Write(Rec{Cycle: a.cycle, Addr: uint64(acc.Addr), Write: acc.Write})
}

// Count reports accesses written.
func (a *AccessWriter) Count() uint64 { return a.n }

// Close flushes the underlying codec.
func (a *AccessWriter) Close() error { return a.w.Close() }
