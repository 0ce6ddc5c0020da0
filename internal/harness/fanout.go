package harness

import (
	"fmt"
	"strconv"
	"sync"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/cpu"
	"repro/internal/hmm"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/trace"
)

// This file is the one run loop of the harness: every simulation of one
// design on one trace is a cell, described by a shared spec and run by a
// group — filter once, fan out. A cell's simulation splits at the LLC
// (see cpu.Filter and cpu.Core): the hierarchy half depends only on the
// access stream and the cache configuration, never on the memory design,
// so cells whose trace and caches are equal share one decode and one
// hierarchy walk. The group's producer filters the stream into a bounded
// ring of post-LLC chunks and every cell's core replays them into its
// own design. Each core sees exactly the chunks cpu.Run would have
// produced for it alone, so results are byte-identical to running the
// cells apart; a lone cell is simply a one-member group.

// shared is one cell's simulation split at the LLC: the trace it filters
// and the design it drives. Cells with equal keys read the same accesses
// through the same cache configuration.
type shared struct {
	key    string
	open   func() (trace.Stream, error) // a fresh reader over the cell's (capped) trace
	sys    config.System
	design config.Design
	build  func() (hmm.MemSystem, error) // the cell's design, built for sys
	bench  string
	seed   uint64 // the trace seed, recorded in the journal and in failure messages
}

// builder returns the build function of design on sys.
func builder(design config.Design, sys config.System) func() (hmm.MemSystem, error) {
	return func() (hmm.MemSystem, error) { return Build(design, sys) }
}

// built returns a build function handing out mem, a design the caller
// already built; such a spec runs once, never as a retry.
func built(mem hmm.MemSystem) func() (hmm.MemSystem, error) {
	return func() (hmm.MemSystem, error) { return mem, nil }
}

// openErr reports a trace that could not be opened for this cell.
func (s shared) openErr(err error) error {
	return fmt.Errorf("%s/%s: open trace: %w", s.design, s.bench, err)
}

// syntheticCell describes design's run of b on sys; name is the built
// design's Name(). It holds the sweep's trace-seed rule: when the profile
// carries no seed, the generator is seeded from runner.Seed(name,
// benchmark), so a cell's stream depends only on what the cell is, never
// on when or where it ran.
func (h *Harness) syntheticCell(design config.Design, name string, sys config.System, b trace.Benchmark) shared {
	p := b.Profile
	if p.Seed == 0 {
		p.Seed = runner.Seed(name, p.Name)
	}
	return shared{
		key:  cellID("synthetic", p.Name, strconv.FormatUint(p.Seed, 16), fmt.Sprint(sys.Caches)),
		open: h.synthetic(p), sys: sys, design: design, build: builder(design, sys),
		bench: p.Name, seed: p.Seed,
	}
}

// runAlone runs one cell as a one-member group.
func (h *Harness) runAlone(s shared) (RunResult, error) {
	g := newGroup(h)
	g.add(0, s)
	return g.result(0)
}

// startSpan opens the cell's simulate/<design> span when h.Spans is
// set; the check comes first so the disabled path builds no span name.
func (h *Harness) startSpan(s shared) obs.SpanID {
	if !h.Spans.Enabled() {
		return 0
	}
	return h.Spans.Start(h.SpanParent, "simulate/"+string(s.design))
}

func (h *Harness) endSpan(sp obs.SpanID, r RunResult, err error) {
	if sp == 0 {
		return
	}
	if err != nil {
		h.Spans.Fail(sp, err)
		return
	}
	h.Spans.Annotate(sp, "accesses", strconv.FormatUint(r.CPU.Accesses, 10))
	h.Spans.End(sp)
}

// sweepShared is sweepCells for the cells named by ids and described by
// spec; each cell's journal seed is its spec's trace seed. Cells that the
// harness owns, that the journal does not already hold, and whose keys
// are equal run as one group on their first attempt; every retry runs
// alone. done turns a cell's outcome into its sweep value. Everything per
// cell — journal records, sharding, resume, retry, interrupt,
// observation — stays sweepCells'.
func sweepShared[T any](h *Harness, ids []string, spec func(i int) shared, done func(i int, r RunResult, err error) (T, error)) ([]T, error) {
	cells := make([]cell, len(ids))
	specs := make([]shared, len(ids))
	groups := make([]*group, len(ids))
	byKey := map[string]*group{}
	for i, id := range ids {
		specs[i] = spec(i)
		cells[i] = cell{ID: id, Seed: specs[i].seed}
		if !h.Shard.Owns(i) {
			continue
		}
		if h.Journal != nil {
			if _, ok := h.Journal.Lookup(id); ok {
				continue
			}
		}
		g := byKey[specs[i].key]
		if g == nil {
			g = newGroup(h)
			byKey[specs[i].key] = g
		}
		g.add(i, specs[i])
		groups[i] = g
	}
	var mu sync.Mutex
	tried := make([]bool, len(ids))
	return sweepCells(h, cells, func(i int) (T, error) {
		mu.Lock()
		g := groups[i]
		if tried[i] || g == nil {
			g = newGroup(h)
			g.add(i, specs[i])
		}
		tried[i] = true
		mu.Unlock()
		r, err := g.result(i)
		return done(i, r, err)
	})
}

// ringChunks bounds how many filtered chunks a group's producer may run
// ahead of its slowest consumer; it is what keeps a group's memory
// independent of trace length. Consumers replay the same chunk in
// parallel, so the ring only needs to cover the producer's lead: on the
// replay-all benchmark a ring of 8 ran no faster than 4 and cost 0.7 MiB
// more peak RSS. A group holds at most one chunk per member, so a lone
// cell filters and replays one chunk at a time.
const ringChunks = 4

// chunkPool holds ring chunks across groups.
var chunkPool = sync.Pool{New: func() any { return cpu.NewChunk() }}

// group is one fan-out: a producer filtering the shared stream into a
// ring of chunks, and one consumer per member cell replaying them.
//
// A group has no goroutines of its own. The sweep workers waiting on its
// cells execute its tasks — filter the next chunk, or replay the next
// chunk into one consumer — so simulation concurrency never exceeds the
// sweep's worker count, and the group progresses while anyone waits on
// it. Workers stay until every member is final, so no finished group
// keeps designs alive for cells the sweep has not reached yet.
type group struct {
	h       *Harness
	members []shared
	slot    map[int]int // cell index -> member

	mu        sync.Mutex
	cond      sync.Cond
	started   bool
	ready     bool // started, and every member's design is built
	filter    *cpu.Filter
	ring      []*cpu.Chunk
	produced  int // chunks filtered so far; chunk k lives in ring[k%len(ring)]
	producing bool
	eof       bool
	srcErr    error // the shared stream failed: every unfinished cell fails with it
	cons      []*consumer
	live      int // consumers not yet final
}

// consumer is one member cell's core half and outcome.
type consumer struct {
	sim  *sim
	core *cpu.Core
	span obs.SpanID

	next  int   // next chunk to replay
	busy  bool  // a task for this consumer is running
	fail  error // the consumer's own failure, pending its finish task
	final bool
	res   RunResult
	err   error
}

func newGroup(h *Harness) *group {
	g := &group{h: h, slot: map[int]int{}}
	g.cond.L = &g.mu
	return g
}

func (g *group) add(i int, s shared) {
	g.slot[i] = len(g.members)
	g.members = append(g.members, s)
}

// result returns cell i's outcome, working on the group's tasks until
// every member is final.
func (g *group) result(i int) (RunResult, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.started {
		// The first worker opens and builds without the lock, since both
		// call into code the group does not own; the rest wait for ready.
		g.started = true
		g.mu.Unlock()
		g.start()
		g.mu.Lock()
		g.ready = true
		g.settle()
	}
	for !g.ready {
		g.cond.Wait()
	}
	for g.live > 0 {
		if task := g.pick(); task != nil {
			g.mu.Unlock()
			task()
			g.mu.Lock()
			continue
		}
		g.cond.Wait()
	}
	c := g.cons[g.slot[i]]
	return c.res, c.err
}

// start opens the shared stream once and builds every member's design
// side. No other worker touches the group until it is ready.
func (g *group) start() {
	g.cons = make([]*consumer, len(g.members))
	g.live = len(g.members)
	src := g.members[0]
	st, err := src.open()
	var hier *cache.Hierarchy
	if err == nil {
		hier, err = cache.NewHierarchy(src.sys.Caches)
	}
	if err == nil {
		g.filter = cpu.NewFilter(hier, st)
		g.ring = make([]*cpu.Chunk, min(ringChunks, len(g.members)))
	}
	for k, s := range g.members {
		c := &consumer{}
		g.cons[k] = c
		if err != nil {
			g.final(c, RunResult{}, s.openErr(err))
			continue
		}
		mem, berr := s.build()
		if berr != nil {
			g.final(c, RunResult{}, berr)
			continue
		}
		c.span = g.h.startSpan(s)
		c.sim = g.h.newSim(s.sys, mem, s.bench, s.seed)
		if c.core, berr = cpu.NewCore(s.sys.Core, mem); berr != nil {
			r, ferr := c.sim.finish(cpu.Result{}, berr)
			g.h.endSpan(c.span, r, ferr)
			g.final(c, r, ferr)
		}
	}
}

// pick claims the next runnable task, or returns nil when every task is
// taken or waits on another. Filtering comes first while the ring has
// room; otherwise the consumer furthest behind replays, since it holds
// the oldest chunk. Called with g.mu held.
func (g *group) pick() func() {
	if low, ok := g.low(); ok && !g.producing && !g.eof && g.produced-low < len(g.ring) {
		g.producing = true
		seq := g.produced
		return func() { g.produce(seq) }
	}
	var c *consumer
	for _, k := range g.cons {
		if k.final || k.busy || (k.next >= g.produced && !g.eof && k.fail == nil) {
			continue
		}
		if c == nil || k.next < c.next {
			c = k
		}
	}
	if c == nil {
		return nil
	}
	c.busy = true
	if c.fail == nil && g.srcErr == nil && c.next < g.produced {
		seq := c.next
		return func() { g.replay(c, seq) }
	}
	return func() { g.finish(c) }
}

// low is the oldest chunk a live consumer still needs; ok is false when
// no consumer needs chunks any more.
func (g *group) low() (low int, ok bool) {
	low = g.produced
	for _, c := range g.cons {
		if !c.final && c.fail == nil {
			low, ok = min(low, c.next), true
		}
	}
	return low, ok
}

func (g *group) produce(seq int) {
	k := seq % len(g.ring)
	if g.ring[k] == nil {
		g.ring[k] = chunkPool.Get().(*cpu.Chunk)
	}
	var ok bool
	err := protect(func() error {
		var err error
		ok, err = g.filter.Next(g.ring[k])
		return err
	})
	g.mu.Lock()
	defer g.mu.Unlock()
	g.producing = false
	switch {
	case err != nil:
		g.srcErr, g.eof = err, true
	case !ok:
		g.eof = true
	default:
		g.produced++
	}
	g.settle()
}

func (g *group) replay(c *consumer, seq int) {
	err := protect(func() error {
		c.core.Replay(g.ring[seq%len(g.ring)])
		return nil
	})
	g.mu.Lock()
	defer g.mu.Unlock()
	c.busy = false
	c.next++
	c.fail = err
	g.cond.Broadcast()
}

// finish assembles a consumer's result: the drained core at a clean end
// of stream, or its partial counts with whichever failure ended it.
func (g *group) finish(c *consumer) {
	g.mu.Lock()
	cause := c.fail
	if cause == nil {
		cause = g.srcErr
	}
	g.mu.Unlock()
	var r RunResult
	err := protect(func() error {
		var err error
		if cause != nil {
			r, err = c.sim.finish(c.core.Partial(), cause)
		} else {
			r, err = c.sim.finish(c.core.Finish(), nil)
		}
		return err
	})
	g.h.endSpan(c.span, r, err)
	g.mu.Lock()
	defer g.mu.Unlock()
	c.busy = false
	g.final(c, r, err)
	g.settle()
}

// final records a consumer's outcome and drops its design, so a finished
// cell's memory is released before the slowest one ends. Called with
// g.mu held, or by start before the group is ready.
func (g *group) final(c *consumer, r RunResult, err error) {
	c.res, c.err, c.final = r, err, true
	c.sim, c.core = nil, nil
	g.live--
}

// settle wakes waiting workers and, once every consumer is final and no
// chunk is being filtered, returns the ring to the pools. Called with
// g.mu held.
func (g *group) settle() {
	if g.live == 0 && !g.producing && g.filter != nil {
		g.filter = nil
		for k, ch := range g.ring {
			if ch != nil {
				chunkPool.Put(ch)
				g.ring[k] = nil
			}
		}
	}
	g.cond.Broadcast()
}

// protect runs fn, converting a panic into an error the way the sweep
// runner does, so one failing design fails only its own cell.
func protect(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return fn()
}
