package harness

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/metrics"
)

// Figure 8: Bumblebee against the five state-of-the-art designs, grouped
// by Table II MPKI class:
//
//	(a) normalized IPC (geomean speedup over no-HBM),
//	(b) normalized HBM traffic,
//	(c) normalized off-chip DRAM traffic,
//	(d) normalized memory dynamic energy.
//
// Traffic and energy are normalized per benchmark against the no-HBM
// baseline's DRAM traffic and energy (the only well-defined common
// denominator — the baseline has no HBM traffic), then averaged per
// group.

// Fig8Designs are the compared designs in the figure's legend order.
var Fig8Designs = []config.Design{
	config.DesignBanshee,
	config.DesignAlloy,
	config.DesignUnison,
	config.DesignChameleon,
	config.DesignHybrid2,
	config.DesignBumblebee,
}

// Fig8Groups are the benchmark groups in figure order.
var Fig8Groups = []string{"High", "Medium", "Low", "All"}

// Fig8Result holds the four metric tables.
type Fig8Result struct {
	IPC    *metrics.Table
	HBM    *metrics.Table
	DRAM   *metrics.Table
	Energy *metrics.Table
	PerRun []RunResult // every (design, bench) run for drill-down
}

// Fig8 reproduces the headline comparison.
//
// In shard mode (Shard.Active) only the per-run rows this shard owns are
// produced and the group tables stay nil: the tables need the full
// matrix plus the no-HBM baseline, so they are built after `bbreport
// merge` reassembles the shards — per-run rows are baseline-independent,
// which is what makes the partition clean. Unsharded, the baseline is
// the matrix's first row, so each benchmark's trace is filtered once for
// all seven designs.
func (h *Harness) Fig8() (*Fig8Result, error) {
	bs := h.Benchmarks()
	var rows []row
	if !h.Shard.Active() {
		rows = append(rows, h.baselineRow())
	}
	for _, d := range Fig8Designs {
		rows = append(rows, row{exp: "fig8", label: string(d), design: d, sys: h.System()})
	}
	runs, err := h.sweepRows(rows, bs)
	if err != nil {
		return nil, err
	}
	if h.Shard.Active() {
		res := &Fig8Result{}
		for di := range Fig8Designs {
			for bi := range bs {
				if h.Shard.Owns(di*len(bs) + bi) {
					res.PerRun = append(res.PerRun, runs[di][bi])
				}
			}
		}
		return res, nil
	}
	base, runs := runs[0], runs[1:]
	res := &Fig8Result{
		IPC:    &metrics.Table{Title: "Figure 8(a): normalized IPC", Columns: Fig8Groups},
		HBM:    &metrics.Table{Title: "Figure 8(b): normalized HBM traffic", Columns: Fig8Groups},
		DRAM:   &metrics.Table{Title: "Figure 8(c): normalized off-chip DRAM traffic", Columns: Fig8Groups},
		Energy: &metrics.Table{Title: "Figure 8(d): normalized memory dynamic energy", Columns: Fig8Groups},
	}
	for di, d := range Fig8Designs {
		groupIPC := map[string][]float64{}
		groupHBM := map[string][]float64{}
		groupDRAM := map[string][]float64{}
		groupPJ := map[string][]float64{}
		for bi, b := range bs {
			r, nohbm := runs[di][bi], base[bi]
			res.PerRun = append(res.PerRun, r)
			ipc := r.CPU.IPC() / nohbm.CPU.IPC()
			hbm := float64(r.HBMBytes) / float64(nohbm.DRAMBytes)
			dram := float64(r.DRAMBytes) / float64(nohbm.DRAMBytes)
			pj := r.Energy.TotalPJ() / nohbm.Energy.TotalPJ()
			for _, g := range []string{string(b.Class), "All"} {
				groupIPC[g] = append(groupIPC[g], ipc)
				groupHBM[g] = append(groupHBM[g], hbm)
				groupDRAM[g] = append(groupDRAM[g], dram)
				groupPJ[g] = append(groupPJ[g], pj)
			}
		}
		ipcRow := map[string]float64{}
		hbmRow := map[string]float64{}
		dramRow := map[string]float64{}
		pjRow := map[string]float64{}
		for _, g := range Fig8Groups {
			gm, err := metrics.Geomean(groupIPC[g])
			if err != nil {
				return nil, err
			}
			ipcRow[g] = gm
			hbmRow[g] = metrics.Mean(groupHBM[g])
			dramRow[g] = metrics.Mean(groupDRAM[g])
			pjRow[g] = metrics.Mean(groupPJ[g])
		}
		res.IPC.Add(string(d), ipcRow)
		res.HBM.Add(string(d), hbmRow)
		res.DRAM.Add(string(d), dramRow)
		res.Energy.Add(string(d), pjRow)
	}
	return res, nil
}

// Summary distills the paper's headline claims from a Fig8 result:
// Bumblebee's speedup margin over the best other design per group, and
// its traffic/energy advantages.
func (r *Fig8Result) Summary() string {
	find := func(t *metrics.Table, design, col string) float64 {
		for _, row := range t.Rows {
			if row.Name == design {
				return row.Values[col]
			}
		}
		return 0
	}
	bestOther := func(t *metrics.Table, col string, lower bool) (string, float64) {
		bestName, best := "", 0.0
		for _, row := range t.Rows {
			if row.Name == string(config.DesignBumblebee) {
				continue
			}
			v := row.Values[col]
			if bestName == "" || (lower && v < best) || (!lower && v > best) {
				bestName, best = row.Name, v
			}
		}
		return bestName, best
	}
	out := "== Headline comparison (Bumblebee vs best other design) ==\n"
	for _, g := range Fig8Groups {
		bb := find(r.IPC, string(config.DesignBumblebee), g)
		name, best := bestOther(r.IPC, g, false)
		out += fmt.Sprintf("%-7s IPC: bumblebee %.3f vs best other (%s) %.3f -> +%.1f%%\n",
			g, bb, name, best, (bb/best-1)*100)
	}
	bbH := find(r.HBM, string(config.DesignBumblebee), "All")
	nH, bH := bestOther(r.HBM, "All", true)
	out += fmt.Sprintf("All     HBM traffic: bumblebee %.3f vs best other (%s) %.3f -> %.1f%% less\n",
		bbH, nH, bH, (1-bbH/bH)*100)
	bbD := find(r.DRAM, string(config.DesignBumblebee), "All")
	nD, bD := bestOther(r.DRAM, "All", true)
	out += fmt.Sprintf("All     DRAM traffic: bumblebee %.3f vs best other (%s) %.3f -> %.1f%% less\n",
		bbD, nD, bD, (1-bbD/bD)*100)
	bbE := find(r.Energy, string(config.DesignBumblebee), "All")
	nE, bE := bestOther(r.Energy, "All", true)
	out += fmt.Sprintf("All     dynamic energy: bumblebee %.3f vs best other (%s) %.3f -> %.1f%% less\n",
		bbE, nE, bE, (1-bbE/bE)*100)
	return out
}
