package harness

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"repro/internal/config"
	"repro/internal/metrics"
	"repro/internal/runner"
)

// The fault sweep (no paper figure — the robustness extension): every
// design runs the Table II workloads under increasing RAS fault rates,
// and each design's IPC is normalized against its own fault-free run.
// cHBM-heavy designs degrade gently (dead frames are just dropped cache);
// POM-heavy designs pay migrations — or, for the fault-oblivious
// baselines, keep serving from dead frames, which RetiredServes counts.

// FaultsAtRate builds the fault configuration for one sweep point: frame
// failures at `rate` per million HBM accesses, transient ECC events at
// 20x that, and a mild thermal throttle window. rate <= 0 disables
// injection entirely (the normalization baseline).
func FaultsAtRate(rate float64) config.Faults {
	f := config.DefaultFaults()
	if rate <= 0 {
		return f
	}
	f.Enabled = true
	f.FrameFailPer1M = rate
	f.TransientPer1M = 20 * rate
	f.ThrottlePeriod = 100_000
	f.ThrottleDuty = 0.05
	return f
}

// FigFaultRow is one (design, rate) point of the sweep: IPC normalized
// to the design's own fault-free run, plus the RAS counters summed over
// all benchmarks.
type FigFaultRow struct {
	Design string
	Rate   float64

	NormIPC float64 // geomean over benchmarks of IPC / fault-free IPC

	ECCCorrected      uint64
	ECCRetried        uint64
	FramesRetired     uint64
	RetiredServes     uint64
	ThrottledAccesses uint64
	RetireMigrations  uint64
	RetireDrops       uint64
	RetireDeferred    uint64
}

// FigFaultResult holds the sweep in (design-major, rate-minor) order.
type FigFaultResult struct {
	Rows   []FigFaultRow
	PerRun []RunResult // every (design, rate, bench) run for drill-down
}

// figFaultCell is one (design, rate) row of the sweep matrix.
type figFaultCell struct {
	design config.Design
	rate   float64
}

// FigFaultWith runs the fault sweep over explicit designs and
// frame-failure rates (failures per million HBM accesses). rates[0] is
// the normalization baseline (normally 0: fault-free).
func (h *Harness) FigFaultWith(designs []config.Design, rates []float64) (*FigFaultResult, error) {
	if len(rates) == 0 {
		return nil, fmt.Errorf("figfault: no rates")
	}
	if h.Shard.Active() {
		return nil, fmt.Errorf("figfault: sharding unsupported (each row normalizes against the design's fault-free run, which another shard may own); use -shard with fig8")
	}
	bs := h.Benchmarks()
	cells := make([]figFaultCell, 0, len(designs)*len(rates))
	for _, d := range designs {
		for _, r := range rates {
			cells = append(cells, figFaultCell{design: d, rate: r})
		}
	}
	runs, err := sweepGrid(h, cells, bs, 1,
		func(ci, bi int) cell {
			c, b := cells[ci], bs[bi].Profile.Name
			label := fmt.Sprintf("%s@%s", c.design, strconv.FormatFloat(c.rate, 'g', -1, 64))
			return cell{ID: cellID("figfault", label, b), Seed: runner.Seed(string(c.design), b)}
		},
		func(ci, bi int) (RunResult, error) {
			c, b := cells[ci], bs[bi]
			sys := h.System()
			sys.Faults = FaultsAtRate(c.rate)
			mem, err := Build(c.design, sys)
			if err != nil {
				return RunResult{}, fmt.Errorf("figfault %s@%g: %w", c.design, c.rate, err)
			}
			r, err := h.Run(sys, mem, b)
			if err != nil {
				return RunResult{}, fmt.Errorf("figfault %s@%g/%s: %w", c.design, c.rate, b.Profile.Name, err)
			}
			h.log("figfault", "design", string(c.design), "rate", c.rate,
				"bench", b.Profile.Name, "ipc", r.CPU.IPC(), "frames_retired", r.Counters.FramesRetired)
			return r, nil
		})
	if err != nil {
		return nil, err
	}
	res := &FigFaultResult{}
	for ci, c := range cells {
		baseIdx := ci - ci%len(rates) // the design's rates[0] row
		row := FigFaultRow{Design: string(c.design), Rate: c.rate}
		ratios := make([]float64, 0, len(bs))
		for bi := range bs {
			r := runs[ci][bi]
			res.PerRun = append(res.PerRun, r)
			ratios = append(ratios, r.CPU.IPC()/runs[baseIdx][bi].CPU.IPC())
			row.ECCCorrected += r.Counters.ECCCorrected
			row.ECCRetried += r.Counters.ECCRetried
			row.FramesRetired += r.Counters.FramesRetired
			row.RetiredServes += r.Counters.RetiredServes
			row.ThrottledAccesses += r.Counters.ThrottledAccesses
			row.RetireMigrations += r.Counters.RetireMigrations
			row.RetireDrops += r.Counters.RetireDrops
			row.RetireDeferred += r.Counters.RetireDeferred
		}
		gm, err := metrics.Geomean(ratios)
		if err != nil {
			return nil, err
		}
		row.NormIPC = gm
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Table renders the sweep as one metrics.Table: rows are designs,
// columns the fault rates, cells the normalized IPC.
func (r *FigFaultResult) Table() *metrics.Table {
	t := &metrics.Table{Title: "Fault sweep: IPC normalized to each design's fault-free run"}
	var cols []string
	seen := map[string]bool{}
	rows := map[string]map[string]float64{}
	var order []string
	for _, row := range r.Rows {
		col := strconv.FormatFloat(row.Rate, 'g', -1, 64)
		if !seen[col] {
			seen[col] = true
			cols = append(cols, col)
		}
		if rows[row.Design] == nil {
			rows[row.Design] = map[string]float64{}
			order = append(order, row.Design)
		}
		rows[row.Design][col] = row.NormIPC
	}
	t.Columns = cols
	for _, d := range order {
		t.Add(d, rows[d])
	}
	return t
}

// WriteFigFaultCSV dumps the sweep as CSV, one row per (design, rate) in
// sweep order. Like the other emitters it is fully determined by its
// input; the determinism tests compare its bytes across -parallel
// settings.
func WriteFigFaultCSV(w io.Writer, res *FigFaultResult) error {
	cw := csv.NewWriter(w)
	header := []string{
		"design", "rate", "norm_ipc",
		"ecc_corrected", "ecc_retried", "frames_retired", "retired_serves",
		"throttled_accesses", "retire_migrations", "retire_drops", "retire_deferred",
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	u := func(v uint64) string { return strconv.FormatUint(v, 10) }
	for _, r := range res.Rows {
		row := []string{
			r.Design,
			strconv.FormatFloat(r.Rate, 'g', -1, 64),
			strconv.FormatFloat(r.NormIPC, 'g', 17, 64),
			u(r.ECCCorrected), u(r.ECCRetried), u(r.FramesRetired),
			u(r.RetiredServes), u(r.ThrottledAccesses),
			u(r.RetireMigrations), u(r.RetireDrops), u(r.RetireDeferred),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
