package cpu

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/trace"
)

// Table I describes a multi-core machine: private L1/L2 per core and one
// shared LLC. RunMulti simulates that topology: each thread owns a
// private hierarchy and an access stream; private misses probe the
// shared LLC; LLC misses and dirty LLC evictions go to the (shared)
// hybrid memory system. Threads are interleaved in global-time order, so
// memory-level contention between cores is modelled by the shared
// devices' queueing.

// Thread is one core's workload and private cache state.
type Thread struct {
	Private *cache.Hierarchy // the core's private levels (L1, L2)
	Stream  trace.Stream

	// internal state
	time   float64
	window missWindow
	res    Result
	done   bool
}

// NewThread builds a thread with private cache levels from cfgs.
func NewThread(private []config.CacheLevel, st trace.Stream) (*Thread, error) {
	h, err := cache.NewHierarchy(private)
	if err != nil {
		return nil, err
	}
	return &Thread{Private: h, Stream: st}, nil
}

// SharedLLC is the shared last-level cache.
type SharedLLC struct {
	C   *cache.Cache
	Lat uint64
}

// NewSharedLLC builds the shared LLC from its Table I description.
func NewSharedLLC(cfg config.CacheLevel) (*SharedLLC, error) {
	c, err := cache.NewCache(cfg)
	if err != nil {
		return nil, err
	}
	return &SharedLLC{C: c, Lat: cfg.LatencyCyc}, nil
}

// RunMulti drives every thread to stream exhaustion, interleaving them
// in global-time order. It returns one Result per thread.
func RunMulti(core config.Core, threads []*Thread, llc *SharedLLC, mem Memory) ([]Result, error) {
	if core.MLP <= 0 || core.CPIBase <= 0 {
		return nil, fmt.Errorf("cpu: invalid core config %+v", core)
	}
	if len(threads) == 0 {
		return nil, fmt.Errorf("cpu: no threads")
	}
	if llc == nil {
		return nil, fmt.Errorf("cpu: shared LLC required")
	}
	live := len(threads)
	for live > 0 {
		// Pick the thread furthest behind in global time.
		var tmin *Thread
		for _, th := range threads {
			if th.done {
				continue
			}
			if tmin == nil || th.time < tmin.time {
				tmin = th
			}
		}
		if !stepThread(core, tmin, llc, mem) {
			tmin.done = true
			live--
		}
	}
	out := make([]Result, len(threads))
	for i, th := range threads {
		th.res.Cycles = uint64(th.window.drain(th.time))
		if th.res.Cycles == 0 {
			th.res.Cycles = 1
		}
		out[i] = th.res
	}
	return out, nil
}

// stepThread advances one thread by one access; false at end of stream.
func stepThread(core config.Core, th *Thread, llc *SharedLLC, mem Memory) bool {
	acc, ok := th.Stream.Next()
	if !ok {
		return false
	}
	th.res.Accesses++
	th.res.Instructions += uint64(acc.Gap)
	th.time += float64(acc.Gap) * core.CPIBase

	r := th.Private.Access(acc.Addr, acc.Write)
	// Private dirty evictions land in the shared LLC.
	for _, wb := range r.Writebacks {
		th.installLLC(llc, mem, wb)
	}
	if r.HitLevel == 0 {
		return true
	}
	if r.HitLevel > 0 {
		th.time += float64(r.HitLatency) / float64(core.MLP)
		return true
	}

	// Private miss: probe the shared LLC.
	hit, ev, evicted := llc.C.Access(acc.Addr, acc.Write)
	if evicted && ev.Dirty {
		th.res.Writebacks++
		mem.Writeback(uint64(th.time), ev.Addr)
	}
	if hit {
		th.time += float64(llc.Lat) / float64(core.MLP)
		return true
	}

	// LLC miss: bounded-MLP overlap, like the single-core model.
	var lat uint64
	th.time, lat = th.window.issue(th.time, core.MLP, float64(llc.Lat), mem, acc.Addr, acc.Write)
	th.res.LLCMisses++
	th.res.TotalMissLatency += lat
	return true
}

// installLLC writes a private dirty eviction into the shared LLC,
// forwarding any dirty LLC victim to memory.
func (th *Thread) installLLC(llc *SharedLLC, mem Memory, a addr.Addr) {
	_, ev, evicted := llc.C.Access(a, true)
	if evicted && ev.Dirty {
		th.res.Writebacks++
		mem.Writeback(uint64(th.time), ev.Addr)
	}
}
