// Package cpu implements the interval-style core model that replaces the
// paper's gem5 ARM A72: instructions retire at a base CPI, loads and
// stores walk the SRAM cache hierarchy, and LLC misses go to the hybrid
// memory system with a bounded number of overlapping misses (MLP). The
// model's purpose is relative IPC between memory designs, which is driven
// by average miss latency and bandwidth contention — exactly what the
// interval abstraction captures.
//
// Run drives one core and RunMulti drives several cores that share the
// LLC and the memory system. Both filter each core's stream through its
// caches with a Filter and advance time only in Core.Replay.
package cpu

import (
	"fmt"
	"sync"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/trace"
)

// Memory is the LLC-miss side of a hybrid memory design (a subset of
// hmm.MemSystem, kept local so cpu does not import hmm).
type Memory interface {
	Access(now uint64, a addr.Addr, write bool) uint64
	Writeback(now uint64, a addr.Addr)
}

// Result summarizes one simulation run.
type Result struct {
	Instructions uint64
	Cycles       uint64
	Accesses     uint64 // loads+stores issued
	LLCMisses    uint64
	Writebacks   uint64

	TotalMissLatency uint64 // sum of individual LLC miss latencies
}

// IPC returns instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// MPKI returns LLC misses per kilo-instruction.
func (r Result) MPKI() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(r.LLCMisses) / float64(r.Instructions) * 1000
}

// AvgMissLatency returns the mean LLC miss latency in cycles.
func (r Result) AvgMissLatency() float64 {
	if r.LLCMisses == 0 {
		return 0
	}
	return float64(r.TotalMissLatency) / float64(r.LLCMisses)
}

// RunOption customizes Run.
type RunOption func(*runCfg)

type runCfg struct {
	accBuf []trace.Access
}

// batchSize is how many trace accesses Run ingests per batch: large
// enough to amortize the stream's interface dispatch, small enough to
// stay cache-resident.
const batchSize = 4096

// WithAccessBuffer supplies a reusable trace ingestion buffer, so sweep
// drivers running many cells don't allocate one per Run call. It is the
// storage of Run's chunk: the filter reads batches straight into it.
func WithAccessBuffer(buf []trace.Access) RunOption {
	return func(c *runCfg) { c.accBuf = buf }
}

// AccessBufferSize returns the ingestion buffer length expected by Run;
// shorter WithAccessBuffer buffers are used as-is with smaller batches.
func AccessBufferSize() int { return batchSize }

// chunkPool holds Run's chunk without its access storage, which is the
// caller's WithAccessBuffer buffer, so serial callers running many cells
// do not allocate a chunk per call.
var chunkPool = sync.Pool{New: func() any { return &Chunk{} }}

// Run drives the access stream through the hierarchy and memory system
// until the stream ends: the hierarchy half and the core half composed
// for one consumer. The hierarchy and memory retain their state, so
// callers can warm up with one stream and measure with another.
func Run(core config.Core, hier *cache.Hierarchy, mem Memory, st trace.Stream, opts ...RunOption) (Result, error) {
	c, err := NewCore(core, mem)
	if err != nil {
		return Result{}, err
	}
	var cfg runCfg
	for _, o := range opts {
		o(&cfg)
	}
	buf := cfg.accBuf
	if len(buf) == 0 {
		buf = make([]trace.Access, batchSize)
	}
	f := NewFilter(hier, st)
	ch := chunkPool.Get().(*Chunk)
	ch.use(buf)
	defer func() {
		ch.acc = nil
		chunkPool.Put(ch)
	}()
	for {
		ok, err := f.Next(ch)
		if err != nil {
			return c.Partial(), err
		}
		if !ok {
			return c.Finish(), nil
		}
		c.Replay(ch)
	}
}

// Core is the core half of the model: an interval core replaying
// filtered chunks into one memory system. Instructions retire at the
// base CPI, inner-cache hits stall for a fraction of their latency, and
// LLC misses overlap up to the MLP window.
type Core struct {
	cfg    config.Core
	mem    Memory
	res    Result
	time   float64 // CPU cycles; float to accumulate fractional CPI exactly
	window missWindow
}

// NewCore returns a core that charges mem for the misses and writebacks
// of the chunks it replays.
func NewCore(core config.Core, mem Memory) (*Core, error) {
	if core.MLP <= 0 || core.CPIBase <= 0 {
		return nil, fmt.Errorf("cpu: invalid core config %+v", core)
	}
	return &Core{cfg: core, mem: mem, window: make(missWindow, 0, core.MLP)}, nil
}

// Replay advances the core over every access of ch, in order. Per access
// the time update order is fixed — the gap at the base CPI, then the
// writebacks issued at that time, then the inner-hit stall or
// the miss — which is what keeps results independent of how the stream
// was chunked.
func (c *Core) Replay(ch *Chunk) {
	cpi, mlp := c.cfg.CPIBase, float64(c.cfg.MLP)
	missBase := float64(ch.missBase)
	time := c.time
	// The chunk's slice headers are read once, into locals: ring chunks
	// sit next to each other, so a header reloaded after every call into
	// the design would share a cache line with the chunk the producer is
	// filling.
	accs, level, lats := ch.acc[:ch.n], ch.level[:ch.n], ch.lats
	evAt, evAddr := ch.evAt, ch.evAddr
	ev := 0
	for i, acc := range accs {
		c.res.Instructions += uint64(acc.Gap)
		time += float64(acc.Gap) * cpi
		for ; ev < len(evAt) && int(evAt[ev]) == i; ev++ {
			c.res.Writebacks++
			c.mem.Writeback(uint64(time), evAddr[ev])
		}
		// L1 hits (level 0) are covered by CPIBase.
		switch lv := level[i]; {
		case lv > 0:
			// Inner-cache hits beyond L1 stall for a fraction of their
			// latency; out-of-order execution hides the rest.
			time += float64(lats[lv]) / mlp
		case lv < 0:
			var lat uint64
			time, lat = c.window.issue(time, c.cfg.MLP, missBase, c.mem, acc.Addr, acc.Write)
			c.res.LLCMisses++
			c.res.TotalMissLatency += lat
		}
	}
	c.res.Accesses += uint64(len(accs))
	c.time = time
}

// Partial returns the counts accumulated so far, without the final
// drain: what a run that fails mid-stream reports.
func (c *Core) Partial() Result { return c.res }

// Finish drains the MLP window and returns the run's result: the run
// ends when the last miss returns.
func (c *Core) Finish() Result {
	res := c.res
	res.Cycles = uint64(c.window.drain(c.time))
	if res.Cycles == 0 {
		res.Cycles = 1
	}
	return res
}

// missWindow holds the completion times of outstanding LLC misses,
// bounded by the core's MLP, in ascending order: the earliest completion
// is first and the latest last.
type missWindow []float64

// issue sends one LLC miss to mem. If the window is full the core first
// stalls until the oldest outstanding miss returns; the miss then issues
// after the lookup path. It returns the updated core time and the miss
// latency as seen from that time.
func (w *missWindow) issue(time float64, mlp int, lookup float64, mem Memory, a addr.Addr, write bool) (float64, uint64) {
	o := *w
	if len(o) >= mlp {
		if o[0] > time {
			time = o[0]
		}
		o = o[:copy(o, o[1:])]
	}
	issue := time + lookup
	done := float64(mem.Access(uint64(issue), a, write))
	if done < issue {
		done = issue
	}
	// Completions mostly grow, so the shift that keeps the window sorted
	// is usually empty.
	o = append(o, done)
	i := len(o) - 1
	for ; i > 0 && o[i-1] > done; i-- {
		o[i] = o[i-1]
	}
	o[i] = done
	*w = o
	return time, uint64(done - time)
}

// drain returns the time at which every outstanding miss has returned.
func (w missWindow) drain(time float64) float64 {
	if n := len(w); n > 0 && w[n-1] > time {
		return w[n-1]
	}
	return time
}
