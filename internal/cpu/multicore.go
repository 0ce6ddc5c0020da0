package cpu

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/trace"
)

// Table I describes a multi-core machine: private L1/L2 per core and one
// shared LLC. RunMulti simulates that topology with the same two halves
// as Run. Private cache contents depend only on a core's own stream, so
// each core filters its stream through its private levels in batches,
// exactly as Run does. Only the shared LLC needs the cores interleaved
// in global time: the core furthest behind resolves its next private
// miss or writeback there and replays the result on its own Core. LLC
// misses and dirty LLC evictions go to the one shared memory system, so
// memory-level contention between cores is modelled by its devices'
// queueing.

// RunMulti runs one core per stream until every stream ends and returns
// one Result per core. The last level of caches is the shared LLC; the
// levels before it are private to each core.
func RunMulti(core config.Core, caches []config.CacheLevel, streams []trace.Stream, mem Memory) ([]Result, error) {
	if len(streams) == 0 {
		return nil, fmt.Errorf("cpu: no streams")
	}
	if len(caches) < 2 {
		return nil, fmt.Errorf("cpu: %d cache levels, need private levels and a shared LLC", len(caches))
	}
	last := len(caches) - 1
	llc, err := cache.NewHierarchy(caches[last:])
	if err != nil {
		return nil, err
	}
	cores := make([]*multiCore, len(streams))
	for i, st := range streams {
		private, err := cache.NewHierarchy(caches[:last])
		if err != nil {
			return nil, err
		}
		c, err := NewCore(core, mem)
		if err != nil {
			return nil, err
		}
		cores[i] = &multiCore{Core: c, f: NewFilter(private, st), in: NewChunk()}
	}

	// one carries a single resolved access into Core.Replay, timed by the
	// whole hierarchy's hit latencies; a miss first walks every level.
	one := &Chunk{lats: make([]uint64, len(caches))}
	one.use(make([]trace.Access, 1))
	for i, lv := range caches {
		one.lats[i] = lv.LatencyCyc
		one.missBase += lv.LatencyCyc
	}
	// toLLC sends a request to the shared LLC; a dirty victim becomes a
	// writeback of the access being resolved. It reports an LLC hit.
	toLLC := func(a addr.Addr, write bool) bool {
		r := llc.Access(a, write)
		for _, wb := range r.Writebacks {
			one.evAt = append(one.evAt, 0)
			one.evAddr = append(one.evAddr, wb)
		}
		return r.HitLevel == 0
	}
	for {
		// Step the live core furthest behind in global time.
		var m *multiCore
		for _, c := range cores {
			if !c.done && (m == nil || c.time < m.time) {
				m = c
			}
		}
		if m == nil {
			break
		}
		ok, err := m.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			m.done = true
			continue
		}
		// Private dirty evictions land in the shared LLC first, then a
		// private miss probes it.
		one.reset()
		in, i := m.in, m.i
		for ; m.ev < len(in.evAt) && int(in.evAt[m.ev]) == i; m.ev++ {
			toLLC(in.evAddr[m.ev], true)
		}
		acc, lv := in.acc[i], in.level[i]
		if lv < 0 && toLLC(acc.Addr, acc.Write) {
			lv = int8(last)
		}
		one.acc[0], one.level[0], one.n = acc, lv, 1
		m.i++
		m.Replay(one)
	}
	out := make([]Result, len(cores))
	for i, c := range cores {
		out[i] = c.Finish()
	}
	return out, nil
}

// multiCore is one core of RunMulti: its Core, the filter over its
// private levels, and its position in the current filtered chunk.
type multiCore struct {
	*Core
	f     *Filter
	in    *Chunk
	i, ev int // next access and next writeback of in
	done  bool
}

// next makes sure in holds an unresolved access, filtering the next
// batch once the current one is used up. It returns false once the
// core's stream has ended.
func (m *multiCore) next() (bool, error) {
	if m.i < m.in.n {
		return true, nil
	}
	m.i, m.ev = 0, 0
	return m.f.Next(m.in)
}
