// Package trace produces the memory access streams that drive the
// simulator. Because SPEC CPU2017 traces are not redistributable, the
// package provides synthetic generators parameterized by footprint, memory
// intensity, spatial locality (run lengths) and temporal locality (hot-set
// reuse), with one named profile per benchmark in the paper's Table II.
// Generated streams can also be recorded to and replayed from a compact
// binary format.
package trace

import (
	"math"

	"repro/internal/addr"
)

// Access is one memory reference of the workload.
type Access struct {
	Addr  addr.Addr // byte address in the flat OS-visible address space
	Write bool
	Gap   uint32 // instructions executed since the previous access
}

// Stream yields a sequence of accesses. Next returns false when the
// stream is exhausted.
type Stream interface {
	Next() (Access, bool)
}

// BatchStream is a Stream that can also fill a caller-provided slice in
// one call, amortizing the per-access interface dispatch on the hot path.
// NextBatch returns the number of accesses written (0 when exhausted) and
// yields exactly the same sequence as repeated Next calls.
type BatchStream interface {
	Stream
	NextBatch(dst []Access) int
}

// Failable is a Stream whose end can mean damage rather than
// exhaustion: replayed trace files end early when a frame is torn or a
// checksum fails, and the consumer must distinguish that from a clean
// EOF. Err returns nil for a clean end.
type Failable interface {
	Err() error
}

// Err reports s's decode error, if s can have one. Synthetic generators
// cannot fail, so a plain Stream always yields nil; consumers (cpu.Run)
// call this once after ingestion so a damaged trace fails the run
// instead of silently truncating it.
func Err(s Stream) error {
	if f, ok := s.(Failable); ok {
		return f.Err()
	}
	return nil
}

// FillBatch fills dst from s, using the batch path when s supports it.
// It returns the number of accesses written; 0 means the stream ended.
func FillBatch(s Stream, dst []Access) int {
	if bs, ok := s.(BatchStream); ok {
		return bs.NextBatch(dst)
	}
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

// Limit wraps a stream and cuts it off after n accesses.
type Limit struct {
	S Stream
	N uint64
}

// Next implements Stream.
func (l *Limit) Next() (Access, bool) {
	if l.N == 0 {
		return Access{}, false
	}
	l.N--
	return l.S.Next()
}

// NextBatch implements BatchStream.
func (l *Limit) NextBatch(dst []Access) int {
	if uint64(len(dst)) > l.N {
		dst = dst[:l.N]
	}
	n := FillBatch(l.S, dst)
	l.N -= uint64(n)
	return n
}

// Err implements Failable, forwarding the wrapped stream's error.
func (l *Limit) Err() error { return Err(l.S) }

// Offset shifts every address of a stream by a fixed delta — the
// simplest model of distinct address spaces when co-running
// multi-programmed workloads on a multi-core system.
type Offset struct {
	S     Stream
	Delta addr.Addr
}

// Next implements Stream.
func (o *Offset) Next() (Access, bool) {
	a, ok := o.S.Next()
	if !ok {
		return Access{}, false
	}
	a.Addr += o.Delta
	return a, true
}

// NextBatch implements BatchStream.
func (o *Offset) NextBatch(dst []Access) int {
	n := FillBatch(o.S, dst)
	for i := 0; i < n; i++ {
		dst[i].Addr += o.Delta
	}
	return n
}

// Err implements Failable, forwarding the wrapped stream's error.
func (o *Offset) Err() error { return Err(o.S) }

// rng is a deterministic xorshift64* generator. The simulator must be
// reproducible run to run, and a local implementation keeps streams stable
// regardless of stdlib changes.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &rng{s: seed}
}

func (r *rng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545f4914f6cdd1d
}

// uint64n returns a uniform value in [0, n).
func (r *rng) uint64n(n uint64) uint64 {
	if n == 0 {
		return 0
	}
	return r.next() % n
}

// float64 returns a uniform value in [0, 1).
func (r *rng) float64() float64 {
	return float64(r.next()>>11) / (1 << 53)
}

// The generators' two kinds of sampling both cost one draw each. A
// Bernoulli draw (a run is hot, a run writes) compares the draw against
// a threshold in the integer domain: float64() is float64(x)/2^53 for the
// 53-bit draw x, the division is exact (exponent scaling), and so is
// multiplying the probability by 2^53, so one integer compare decides
// exactly what r.float64() < q would. A geometric draw (instruction
// gaps, run lengths) inverts the distribution's CDF at one uniform
// variate (geometricP) instead of counting Bernoulli trials, so its cost
// does not grow with the mean.

// ltThresh returns t such that r.float64() < q  <=>  r.next()>>11 < t.
// For integer q*2^53, x < q*2^53 directly; otherwise x < q*2^53 iff
// x <= floor(q*2^53) iff x < ceil(q*2^53). Ceil covers both cases.
func ltThresh(q float64) uint64 {
	return uint64(math.Ceil(q * (1 << 53)))
}

// geomParams precomputes the constants of a geometric sample with a
// given mean.
type geomParams struct {
	one    bool    // mean <= 1: always 1, no RNG draw
	invLog float64 // 1 / ln(1-p) for success probability p = 1/mean
	max    uint64  // sample cap, uint64(mean*16)
}

func makeGeom(mean float64) geomParams {
	if mean <= 1 {
		return geomParams{one: true}
	}
	return geomParams{invLog: 1 / math.Log1p(-1/mean), max: uint64(mean * 16)}
}

// geometricP returns a geometric sample >= 1 (the number of trials up to
// the first success, success probability p = 1/mean), capped at
// 16*mean, from exactly one RNG draw by inverting the CDF: with u
// uniform on (0, 1], n = 1 + floor(ln(u) / ln(1-p)) satisfies
// P(n > k) = P(u <= (1-p)^k) = (1-p)^k.
func (r *rng) geometricP(g geomParams) uint64 {
	if g.one {
		return 1
	}
	u := float64(r.next()>>11+1) / (1 << 53)
	n := 1 + uint64(math.Log(u)*g.invLog)
	if n > g.max {
		n = g.max
	}
	return n
}
