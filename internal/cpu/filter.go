package cpu

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/trace"
)

// The core model is split at the LLC. The hierarchy half (Filter) walks a
// trace through the SRAM caches and records what reaches memory; the core
// half (Core) replays that record into one memory system. Nothing the
// hierarchy does depends on memory timing — cache.Hierarchy.Access takes
// no time input — so one filtered stream can drive any number of designs,
// and Run is simply the two halves composed for a single consumer.

// Chunk is one batch of the post-LLC event stream: the accesses as the
// trace delivered them (gap, address, write flag), the hierarchy hit
// level of each (-1 for an LLC miss), and the LLC writebacks the
// accesses trigger before their own lookup resolves, kept sparse and in
// issue order. The chunk is the ingestion buffer too, so filtering copies
// nothing.
type Chunk struct {
	acc   []trace.Access // capacity; the batch is acc[:n]
	level []int8
	n     int

	evAt   []int32 // index of the access that issued each writeback
	evAddr []addr.Addr

	// The filtering hierarchy's per-level hit latencies and lookup path,
	// which the core needs to charge inner hits and time misses.
	lats     []uint64
	missBase uint64
}

// NewChunk returns an empty chunk holding up to AccessBufferSize()
// accesses.
func NewChunk() *Chunk {
	c := &Chunk{}
	c.use(make([]trace.Access, batchSize))
	return c
}

// use makes buf the chunk's access storage. The event arrays start with
// room for one event per access, enough for most Table II profiles, so
// they are rarely regrown (each regrowth leaves garbage behind); a
// denser chunk grows them once and the chunk keeps the room.
func (c *Chunk) use(buf []trace.Access) {
	c.acc = buf
	if len(c.level) < len(buf) {
		c.level = make([]int8, len(buf))
		c.evAt = make([]int32, 0, len(buf))
		c.evAddr = make([]addr.Addr, 0, len(buf))
	}
}

// Len returns the number of accesses the chunk holds.
func (c *Chunk) Len() int { return c.n }

// Requests calls fn for every memory request the chunk carries, in the
// order a core issues them: per access, its LLC writebacks, then the
// access itself when it missed the LLC.
func (c *Chunk) Requests(fn func(a addr.Addr, write, writeback bool)) {
	ev := 0
	for i, acc := range c.acc[:c.n] {
		for ; ev < len(c.evAt) && int(c.evAt[ev]) == i; ev++ {
			fn(c.evAddr[ev], false, true)
		}
		if c.level[i] < 0 {
			fn(acc.Addr, acc.Write, false)
		}
	}
}

func (c *Chunk) reset() {
	c.n = 0
	c.evAt, c.evAddr = c.evAt[:0], c.evAddr[:0]
}

// Filter is the hierarchy half of the core model: it pulls a trace stream
// through an SRAM hierarchy one batch at a time and records each batch's
// post-LLC events into a Chunk.
type Filter struct {
	hier *cache.Hierarchy
	st   trace.Stream
	n    uint64 // accesses filtered so far
}

// NewFilter prepares to filter st through hier. The chunks carry their
// own ingestion buffers.
func NewFilter(hier *cache.Hierarchy, st trace.Stream) *Filter {
	return &Filter{hier: hier, st: st}
}

// Next filters the stream's next batch into c, overwriting it. It
// returns false once the stream has ended cleanly, and an error when the
// stream ended because its backing trace is damaged: a short replay would
// poison every metric, so decode damage fails the run.
func (f *Filter) Next(c *Chunk) (bool, error) {
	c.reset()
	n := trace.FillBatch(f.st, c.acc)
	if n == 0 {
		if err := trace.Err(f.st); err != nil {
			return false, fmt.Errorf("cpu: trace stream failed after %d accesses: %w", f.n, err)
		}
		return false, nil
	}
	c.lats, c.missBase = f.hier.Latencies(), f.hier.MissLatencyBase()
	level := c.level[:n]
	for i, acc := range c.acc[:n] {
		r := f.hier.Access(acc.Addr, acc.Write)
		for _, wb := range r.Writebacks {
			c.evAt = append(c.evAt, int32(i))
			c.evAddr = append(c.evAddr, wb)
		}
		level[i] = int8(r.HitLevel)
	}
	c.n = n
	f.n += uint64(n)
	return true, nil
}
