package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/energy"
	"repro/internal/harness"
	"repro/internal/hmm"
	"repro/internal/trace"
)

// The traced run calls the same public functions the harness calls, one
// cell at a time, with two timing wrappers around the layer boundaries
// cpu.Run crosses through an interface: the trace stream and the memory
// system. *cache.Hierarchy is a concrete type and cannot be wrapped, so
// the cpu layer's self time includes the hierarchy walk; a standalone
// pass over the same accesses splits the two.

// timedStream times every batch the core pulls from the trace layer. It
// is a BatchStream, so cpu.Run keeps its batch ingestion path.
type timedStream struct {
	s     trace.Stream
	ns    int64
	calls uint64
	n     uint64
}

func (t *timedStream) Next() (trace.Access, bool) {
	t0 := time.Now()
	a, ok := t.s.Next()
	t.ns += int64(time.Since(t0))
	t.calls++
	if ok {
		t.n++
	}
	return a, ok
}

func (t *timedStream) NextBatch(dst []trace.Access) int {
	t0 := time.Now()
	n := trace.FillBatch(t.s, dst)
	t.ns += int64(time.Since(t0))
	t.calls++
	t.n += uint64(n)
	return n
}

// Err forwards decode damage, so a torn trace still fails the run.
func (t *timedStream) Err() error { return trace.Err(t.s) }

// memCall is one request the core sent to the memory system.
type memCall struct {
	now   uint64
	a     addr.Addr
	write bool
}

// timedMem times every call the core makes into the memory design.
// When rec is set it also records the calls for the DRAM replay.
type timedMem struct {
	m     hmm.MemSystem
	ns    int64
	calls uint64
	rec   *[]memCall
}

func (t *timedMem) Access(now uint64, a addr.Addr, write bool) uint64 {
	t0 := time.Now()
	done := t.m.Access(now, a, write)
	t.ns += int64(time.Since(t0))
	t.calls++
	if t.rec != nil {
		*t.rec = append(*t.rec, memCall{now, a, write})
	}
	return done
}

func (t *timedMem) Writeback(now uint64, a addr.Addr) {
	t0 := time.Now()
	t.m.Writeback(now, a)
	t.ns += int64(time.Since(t0))
	t.calls++
	if t.rec != nil {
		*t.rec = append(*t.rec, memCall{now, a, true})
	}
}

// span is one interval of the traced run, kept in memory and exported as
// a Chrome trace at exit. Aggregated spans (the per-cell trace and hmm
// children) sum many calls; they are laid end to end from the start of
// their parent with their call count in Args.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"` // -1 for a root
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"` // from the start of the traced run
	Dur    int64              `json:"dur_ns"`
	Args   map[string]float64 `json:"args,omitempty"`
}

type spanLog struct {
	t0    time.Time
	spans []span
}

func (l *spanLog) add(parent int, name string, start time.Time, dur int64, args map[string]float64) int {
	id := len(l.spans)
	l.spans = append(l.spans, span{id, parent, name, int64(start.Sub(l.t0)), dur, args})
	return id
}

// tracedReport is one traced child's measurement of one pass. Times are
// as measured; the parent divides the declared ones by Speed.
type tracedReport struct {
	Speed       float64            `json:"speed"`  // see calib.go
	Layers      map[string]float64 `json:"layers"` // declared per-layer metrics
	Detail      map[string]float64 `json:"detail"` // per-design and workload-specific extras, as measured
	CPUS        float64            `json:"cpu_s"`  // CPU time of the traced cells
	Cells       int                `json:"cells"`
	Failed      int                `json:"failed"`
	Failures    []string           `json:"failures,omitempty"`
	CellDigests map[string]string  `json:"cell_digests"`
	Spans       []span             `json:"spans"`
}

// layerAgg sums one traced pass over its cells.
type layerAgg struct {
	streamNS, memNS, cpuSelfNS int64
	accesses, memCalls         uint64
	writebacks                 uint64
	l1, l2, llc                cache.Stats
	requests, servedHBM, moves uint64
	hbmBytes, ddrBytes         uint64
	hbmRow, ddrRow             dram.Stats
	cellS                      []float64
	design                     map[string]*designAgg
}

type designAgg struct {
	ns                         int64
	calls                      uint64
	requests, servedHBM, moves uint64
}

func addCache(dst *cache.Stats, s cache.Stats) {
	dst.Hits += s.Hits
	dst.Misses += s.Misses
	dst.Writebacks += s.Writebacks
}

func moves(c hmm.Counters) uint64 {
	return c.BlockFills + c.PageMigrations + c.PageSwaps + c.Evictions + c.ModeSwitches
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runTraced runs every cell of the workload serially with the timing
// wrappers, then the standalone hierarchy pass and the DRAM replay.
func runTraced(e *env) (*tracedReport, error) {
	cells := e.w.cells(e)
	log := &spanLog{t0: time.Now()}
	buf := make([]trace.Access, cpu.AccessBufferSize())
	agg := &layerAgg{design: map[string]*designAgg{}}
	rep := &tracedReport{Cells: len(cells), CellDigests: map[string]string{}}
	var misses []memCall
	recorded := false

	alu0, chase0 := calibrate(1)
	cpu0 := cpuTime()
	for _, c := range cells {
		var rec *[]memCall
		if !recorded && c.Design == config.DesignBumblebee {
			rec, recorded = &misses, true
		}
		r, err := tracedCell(e, c, log, buf, agg, rec)
		if err != nil {
			rep.Failed++
			rep.Failures = append(rep.Failures, fmt.Sprintf("%s/%s: %v", c.Design, c.Bench.Profile.Name, err))
			continue
		}
		if bad := checkCell(r, e.planned); len(bad) > 0 {
			rep.Failed++
			rep.Failures = append(rep.Failures, bad...)
		}
		rep.CellDigests[cellKey(r)] = digest(canon(r))
	}
	rep.CPUS = cpuTime() - cpu0
	alu1, chase1 := calibrate(1)
	rep.Speed = speed(alu0, chase0, alu1, chase1)

	hierNS, hierN, err := standaloneHierarchy(e, cells, log)
	if err != nil {
		return nil, err
	}
	dramNS, err := replayDRAM(e, misses, log)
	if err != nil {
		return nil, err
	}

	acc := float64(agg.accesses)
	rep.Layers = map[string]float64{
		"trace.self_s":                     float64(agg.streamNS) / 1e9,
		"trace.ns_per_access":              ratio(float64(agg.streamNS), acc),
		"cache.standalone_ns_per_access":   ratio(float64(hierNS), float64(hierN)),
		"cache.L1D.hit_rate":               agg.l1.HitRate(),
		"cache.L2.hit_rate":                agg.l2.HitRate(),
		"cache.llc_miss_ratio":             1 - agg.llc.HitRate(),
		"cache.llc_writebacks_per_kaccess": ratio(float64(agg.writebacks)*1000, acc),
		"cpu.self_s":                       float64(agg.cpuSelfNS) / 1e9,
		"cpu.self_ns_per_access":           ratio(float64(agg.cpuSelfNS), acc),
		"hmm.self_s":                       float64(agg.memNS) / 1e9,
		"hmm.ns_per_call":                  ratio(float64(agg.memNS), float64(agg.memCalls)),
		"hmm.calls":                        float64(agg.memCalls),
		"hmm.hbm_serve_rate":               ratio(float64(agg.servedHBM), float64(agg.requests)),
		"hmm.moves_per_kreq":               ratio(float64(agg.moves)*1000, float64(agg.requests)),
		"dram.hbm_bytes_per_req":           ratio(float64(agg.hbmBytes), float64(agg.requests)),
		"dram.ddr_bytes_per_req":           ratio(float64(agg.ddrBytes), float64(agg.requests)),
		"dram.hbm_row_hit_rate":            rowHitRate(agg.hbmRow),
		"dram.ddr_row_hit_rate":            rowHitRate(agg.ddrRow),
		"dram.replay_ns_per_access":        ratio(float64(dramNS), float64(len(misses))),
		"harness.cell_p50_s":               median(agg.cellS),
		"harness.cell_max_s":               maxOf(agg.cellS),
	}
	rep.Detail = map[string]float64{"harness.cells": float64(len(cells))}
	for name, d := range agg.design {
		p := "hmm." + name + "."
		rep.Detail[p+"self_s"] = float64(d.ns) / 1e9
		rep.Detail[p+"ns_per_call"] = ratio(float64(d.ns), float64(d.calls))
		rep.Detail[p+"calls"] = float64(d.calls)
		rep.Detail[p+"hbm_serve_rate"] = ratio(float64(d.servedHBM), float64(d.requests))
		rep.Detail[p+"moves_per_kreq"] = ratio(float64(d.moves)*1000, float64(d.requests))
	}
	if e.replay != "" {
		fi, err := os.Stat(e.replay)
		if err != nil {
			return nil, err
		}
		rep.Detail["tracecodec.bytes_per_access"] = ratio(float64(fi.Size()), float64(e.planned))
	}
	rep.Spans = log.spans
	return rep, nil
}

// tracedCell is harness.Run's cell (Build, NewHierarchy, the trace
// source, cpu.Run with a pooled-size access buffer) with the wrappers in
// place, assembled into the same RunResult.
func tracedCell(e *env, c cellSpec, log *spanLog, buf []trace.Access, agg *layerAgg, rec *[]memCall) (harness.RunResult, error) {
	start := time.Now()
	mem, err := harness.Build(c.Design, e.sys)
	if err != nil {
		return harness.RunResult{}, err
	}
	hier, err := cache.NewHierarchy(e.sys.Caches)
	if err != nil {
		return harness.RunResult{}, err
	}
	st, f, err := openCell(e, c, mem)
	if err != nil {
		return harness.RunResult{}, err
	}
	if f != nil {
		defer f.Close()
	}
	runStart := time.Now()
	ts := &timedStream{s: st}
	tm := &timedMem{m: mem, rec: rec}
	res, err := cpu.Run(e.sys.Core, hier, tm, ts, cpu.WithAccessBuffer(buf))
	end := time.Now()
	if err != nil {
		return harness.RunResult{}, err
	}

	dev := mem.Devices()
	hbm, ddr := dev.HBM.Stats(), dev.DRAM.Stats()
	r := harness.RunResult{
		Design:   mem.Name(),
		Bench:    c.Bench.Profile.Name,
		CPU:      res,
		Counters: mem.Counters(),
		Energy: energy.FromStats(hbm, ddr).WithStatic(
			dev.HBM.BackgroundEnergyPJ(res.Cycles), dev.DRAM.BackgroundEnergyPJ(res.Cycles)),
		HBMBytes:  hbm.TotalBytes(),
		DRAMBytes: ddr.TotalBytes(),
	}

	runNS := int64(end.Sub(runStart))
	cell := log.add(-1, "cell/"+r.Design+"/"+r.Bench, start, int64(end.Sub(start)), nil)
	log.add(cell, "setup", start, int64(runStart.Sub(start)), nil)
	run := log.add(cell, "run", runStart, runNS, map[string]float64{"accesses": float64(res.Accesses)})
	streamName := "trace"
	if e.replay != "" {
		streamName = "tracecodec"
	}
	log.add(run, streamName, runStart, ts.ns, map[string]float64{"calls": float64(ts.calls), "accesses": float64(ts.n)})
	log.add(run, "hmm/"+r.Design, runStart.Add(time.Duration(ts.ns)), tm.ns, map[string]float64{"calls": float64(tm.calls)})

	lv := hier.Levels()
	addCache(&agg.l1, lv[0].Stats())
	addCache(&agg.l2, lv[1].Stats())
	addCache(&agg.llc, hier.LLC().Stats())
	agg.streamNS += ts.ns
	agg.memNS += tm.ns
	agg.cpuSelfNS += runNS - ts.ns - tm.ns
	agg.accesses += res.Accesses
	agg.memCalls += tm.calls
	agg.writebacks += res.Writebacks
	agg.requests += r.Counters.Requests
	agg.servedHBM += r.Counters.ServedHBM
	agg.moves += moves(r.Counters)
	agg.hbmBytes += r.HBMBytes
	agg.ddrBytes += r.DRAMBytes
	agg.hbmRow.RowHits += hbm.RowHits
	agg.hbmRow.Activates += hbm.Activates
	agg.ddrRow.RowHits += ddr.RowHits
	agg.ddrRow.Activates += ddr.Activates
	agg.cellS = append(agg.cellS, end.Sub(start).Seconds())
	d := agg.design[r.Design]
	if d == nil {
		d = &designAgg{}
		agg.design[r.Design] = d
	}
	d.ns += tm.ns
	d.calls += tm.calls
	d.requests += r.Counters.Requests
	d.servedHBM += r.Counters.ServedHBM
	d.moves += moves(r.Counters)
	return r, nil
}

func rowHitRate(s dram.Stats) float64 {
	return ratio(float64(s.RowHits), float64(s.RowHits+s.Activates))
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// standaloneHierarchy drives a fresh hierarchy over the accesses of the
// first cell of each bench, buffered up front so only Hierarchy.Access is
// timed. It returns the total time and access count.
func standaloneHierarchy(e *env, cells []cellSpec, log *spanLog) (int64, uint64, error) {
	seen := map[string]bool{}
	var total int64
	var n uint64
	for _, c := range cells {
		name := c.Bench.Profile.Name
		if seen[name] {
			continue
		}
		seen[name] = true
		accs, err := materialize(e, c)
		if err != nil {
			return 0, 0, err
		}
		hier, err := cache.NewHierarchy(e.sys.Caches)
		if err != nil {
			return 0, 0, err
		}
		t0 := time.Now()
		for _, a := range accs {
			hier.Access(a.Addr, a.Write)
		}
		d := int64(time.Since(t0))
		log.add(-1, "standalone/cache/"+name, t0, d, map[string]float64{"accesses": float64(len(accs))})
		total += d
		n += uint64(len(accs))
	}
	return total, n, nil
}

// materialize reads a cell's whole trace into memory.
func materialize(e *env, c cellSpec) ([]trace.Access, error) {
	mem, err := harness.Build(c.Design, e.sys)
	if err != nil {
		return nil, err
	}
	st, f, err := openCell(e, c, mem)
	if err != nil {
		return nil, err
	}
	if f != nil {
		defer f.Close()
	}
	accs := make([]trace.Access, 0, e.planned)
	buf := make([]trace.Access, cpu.AccessBufferSize())
	for {
		n := trace.FillBatch(st, buf)
		if n == 0 {
			return accs, trace.Err(st)
		}
		accs = append(accs, buf[:n]...)
	}
}

// replayDRAM replays a recorded LLC-miss and writeback stream into a bare
// off-chip DRAM device as 64 B accesses and returns the time it took.
func replayDRAM(e *env, calls []memCall, log *spanLog) (int64, error) {
	dev, err := dram.New(e.sys.DRAM, e.sys.Core.FreqMHz)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	for _, c := range calls {
		dev.Access(c.now, c.a, 64, c.write)
	}
	d := int64(time.Since(t0))
	log.add(-1, "standalone/dram", t0, d, map[string]float64{"accesses": float64(len(calls))})
	return d, nil
}
