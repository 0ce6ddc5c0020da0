package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"

	"repro/internal/config"
	"repro/internal/harness"
	"repro/internal/hmm"
	"repro/internal/runner"
	"repro/internal/trace"
	"repro/internal/tracecodec"
)

// scale is the harness's default capacity scale (1/128 of Table I).
const scale = 128

// replayBench is the profile replay-all records its input from.
const replayBench = "mcf"

// workload is one named input set the benchmark runs. Its cells are the
// (design, bench) simulations its production call performs; the
// constructor pass and the traced run rebuild the same cells from them.
type workload struct {
	Name string
	Why  string
	// Seeded workloads derive every trace from -seed. fig8-sweep keeps the
	// harness's own rule, runner.Seed(design, bench), because that rule is
	// part of what Fig8 does.
	Seeded   bool
	Parallel int    // harness workers, capped at nproc
	Accesses uint64 // per cell; replay-all's recorded trace length
	Quick    uint64 // per cell under -quick
	cells    func(e *env) []cellSpec
	call     func(e *env) (outcome, error)
}

// outcome is what a workload's production call returns.
type outcome struct {
	Runs []harness.RunResult // per-cell results, in cell order
	// Extra is further deterministic output folded into sim_digest.
	Extra any
	// Hidden counts cells the call runs but does not return: Fig8's
	// no-HBM normalization baseline.
	Hidden int
}

// env is one child's view of a workload: the harness it drives and the
// inputs derived from -seed.
type env struct {
	w       *workload
	h       *harness.Harness
	sys     config.System
	seed    uint64
	replay  string // recorded trace path (replay-all)
	planned uint64 // accesses every cell must simulate
}

// cellSpec is one cell. Bench.Profile.Seed 0 defers to the harness rule.
type cellSpec struct {
	Design config.Design
	Bench  trace.Benchmark
}

var workloads = []*workload{
	{
		Name: "fig8-sweep",
		Why: "The Figure 8 sweep users wait on most: every layer runs, and each bench's " +
			"generation and hierarchy filtering repeat for all seven designs.",
		Parallel: 2, Accesses: 200_000, Quick: 2_000,
		cells: func(e *env) []cellSpec {
			bs := e.h.Benchmarks()
			var cs []cellSpec
			for _, b := range bs {
				cs = append(cs, cellSpec{config.DesignNoHBM, b})
			}
			for _, d := range harness.Fig8Designs {
				for _, b := range bs {
					cs = append(cs, cellSpec{d, b})
				}
			}
			return cs
		},
		call: func(e *env) (outcome, error) {
			res, err := e.h.Fig8()
			if err != nil {
				return outcome{}, err
			}
			tables := []any{res.IPC, res.HBM, res.DRAM, res.Energy}
			return outcome{Runs: res.PerRun, Extra: tables, Hidden: len(e.h.Benchmarks())}, nil
		},
	},
	{
		Name: "gen-heavy",
		Why: "Bumblebee on the Low-MPKI class: long instruction gaps make the trace " +
			"generator the largest share, and one design leaves nothing to share.",
		Seeded: true, Parallel: 1, Accesses: 600_000, Quick: 5_000,
		cells: classCells(trace.LowMPKI),
		call:  serialCall,
	},
	{
		Name: "mem-heavy",
		Why: "Bumblebee on the High-MPKI class: most accesses miss the LLC, so the " +
			"design, DRAM and hierarchy dominate and the generator is small.",
		Seeded: true, Parallel: 1, Accesses: 1_200_000, Quick: 5_000,
		cells: classCells(trace.HighMPKI),
		call:  serialCall,
	},
	{
		Name: "replay-all",
		Why: "bbserve's design=all job: one recorded BBT1 trace replayed on all nine " +
			"designs, so the trace layer decodes instead of generating.",
		Seeded: true, Parallel: 2, Accesses: 1_200_000, Quick: 5_000,
		cells: func(e *env) []cellSpec {
			b := replayBenchmark(e.seed)
			cs := make([]cellSpec, len(harness.AllDesigns))
			for i, d := range harness.AllDesigns {
				cs[i] = cellSpec{d, b}
			}
			return cs
		},
		call: func(e *env) (outcome, error) {
			var mu sync.Mutex
			var files []io.Closer
			defer func() {
				for _, f := range files {
					f.Close()
				}
			}()
			runs, err := e.h.ReplaySweep(harness.AllDesigns, replayBench, func() (trace.Stream, error) {
				st, f, err := openReplay(e.replay)
				if err != nil {
					return nil, err
				}
				mu.Lock()
				files = append(files, f)
				mu.Unlock()
				return st, nil
			})
			return outcome{Runs: runs}, err
		},
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// newEnv sets up workload w for one child. replay is the recorded trace
// (replay-all only).
func newEnv(w *workload, seed uint64, quick bool, replay string) *env {
	acc := w.Accesses
	if quick {
		acc = w.Quick
	}
	par := w.Parallel
	if n := runtime.NumCPU(); par > n {
		par = n
	}
	h := &harness.Harness{Scale: scale, Accesses: acc, Parallel: par}
	e := &env{w: w, h: h, sys: h.System(), seed: seed, replay: replay, planned: acc}
	if replay != "" {
		// The recording defines the run: replay it whole.
		h.Accesses = 0
	}
	return e
}

// benchSeed derives a bench's trace seed from the workload seed; never 0,
// which would hand the choice back to the harness rule.
func benchSeed(seed uint64, bench string) uint64 {
	return runner.SeedFold(seed, runner.Seed("benchmark", bench))
}

func classCells(class trace.MPKIClass) func(e *env) []cellSpec {
	return func(e *env) []cellSpec {
		var cs []cellSpec
		for _, b := range e.h.Benchmarks() {
			if b.Class == class {
				b.Profile.Seed = benchSeed(e.seed, b.Profile.Name)
				cs = append(cs, cellSpec{config.DesignBumblebee, b})
			}
		}
		return cs
	}
}

// serialCall runs each cell through harness.Build and Harness.Run, the
// single-run path of bumblebee-sim.
func serialCall(e *env) (outcome, error) {
	var out outcome
	for _, c := range e.w.cells(e) {
		mem, err := harness.Build(c.Design, e.sys)
		if err != nil {
			return out, err
		}
		r, err := e.h.Run(e.sys, mem, c.Bench)
		if err != nil {
			return out, err
		}
		out.Runs = append(out.Runs, r)
	}
	return out, nil
}

func replayBenchmark(seed uint64) trace.Benchmark {
	b, err := trace.ByName(replayBench)
	if err != nil {
		panic(err) // replayBench names a Table II entry
	}
	b = b.Scale(scale)
	b.Profile.Seed = benchSeed(seed, replayBench)
	return b
}

// recordReplay writes replay-all's input: n accesses of the seeded mcf
// profile as a BBT1 trace in dir.
func recordReplay(dir string, seed uint64, n uint64) (string, error) {
	gen, err := trace.NewSynthetic(replayBenchmark(seed).Profile)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, replayBench+".bbt1")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	w := tracecodec.NewAccessWriter(tracecodec.NewWriter(f, tracecodec.Format{Kind: tracecodec.KindBinary}))
	for i := uint64(0); i < n; i++ {
		a, _ := gen.Next()
		if err := w.Write(a); err != nil {
			return "", fmt.Errorf("record replay trace: %w", err)
		}
	}
	if err := w.Close(); err != nil {
		return "", fmt.Errorf("record replay trace: %w", err)
	}
	return path, f.Close()
}

func openReplay(path string) (*tracecodec.Stream, io.Closer, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	r, err := tracecodec.Open(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return tracecodec.NewStream(r), f, nil
}

// openCell builds a cell's trace source the way the production path does:
// a synthetic generator seeded by the harness rule when the profile has
// no seed, or a fresh reader over the recorded trace. The closer is nil
// for synthetic sources.
func openCell(e *env, c cellSpec, mem hmm.MemSystem) (trace.Stream, io.Closer, error) {
	if e.replay != "" {
		return openReplay(e.replay)
	}
	p := c.Bench.Profile
	if p.Seed == 0 {
		p.Seed = runner.Seed(mem.Name(), p.Name)
	}
	gen, err := trace.NewSynthetic(p)
	if err != nil {
		return nil, nil, err
	}
	return &trace.Limit{S: gen, N: e.planned}, nil, nil
}
