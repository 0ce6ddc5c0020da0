package main

// metricDef declares one reported metric. BENCHMARK.json at the repository
// root carries the same table; a test keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // regression bound, as a share of the parent's median
}

// endToEnd are the metrics a user of the simulator sees, measured with
// tracing off. All times are host time in reference seconds (calib.go).
var endToEnd = []metricDef{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.15},
	{Name: "accesses_per_s", Unit: "accesses/s", Better: "higher", Bound: 0.15},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.15},
}

// setupFloorS is the smallest setup_s change -compare calls a regression:
// the serial workloads set up in well under a millisecond, where 25% is
// timer noise.
const setupFloorS = 0.010

// perLayer are the single-layer metrics of the traced run (runtime.* come
// from the untraced children of the same invocation). "trace" is the
// stream the core reads: the synthetic generator, or the tracecodec
// decoder on replay-all. Simulated statistics (hit rates, traffic) are
// deterministic; they explain why a host time moved.
var perLayer = []metricDef{
	{Name: "trace.self_s", Unit: "s", Better: "lower"},
	{Name: "trace.ns_per_access", Unit: "ns", Better: "lower"},
	{Name: "cache.standalone_ns_per_access", Unit: "ns", Better: "lower"},
	{Name: "cache.L1D.hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "cache.L2.hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "cache.llc_miss_ratio", Unit: "ratio", Better: "lower"},
	{Name: "cache.llc_writebacks_per_kaccess", Unit: "1/kaccess", Better: "lower"},
	{Name: "cpu.self_s", Unit: "s", Better: "lower"},
	{Name: "cpu.self_ns_per_access", Unit: "ns", Better: "lower"},
	{Name: "hmm.self_s", Unit: "s", Better: "lower"},
	{Name: "hmm.ns_per_call", Unit: "ns", Better: "lower"},
	{Name: "hmm.calls", Unit: "count", Better: "lower"},
	{Name: "hmm.hbm_serve_rate", Unit: "ratio", Better: "higher"},
	{Name: "hmm.moves_per_kreq", Unit: "1/kreq", Better: "lower"},
	{Name: "dram.hbm_bytes_per_req", Unit: "B/req", Better: "lower"},
	{Name: "dram.ddr_bytes_per_req", Unit: "B/req", Better: "lower"},
	{Name: "dram.hbm_row_hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "dram.ddr_row_hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "dram.replay_ns_per_access", Unit: "ns", Better: "lower"},
	{Name: "harness.cell_p50_s", Unit: "s", Better: "lower"},
	{Name: "harness.cell_max_s", Unit: "s", Better: "lower"},
	{Name: "runtime.alloc_mb", Unit: "MiB", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "bench.trace_overhead", Unit: "ratio", Better: "lower"},
}

func findMetric(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// isTime reports whether a metric is a host time, which the benchmark
// reports in reference seconds (calib.go).
func (d metricDef) isTime() bool {
	return d.Unit == "s" || d.Unit == "ms" || d.Unit == "ns"
}
