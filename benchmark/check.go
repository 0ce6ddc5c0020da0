package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/config"
	"repro/internal/cpu"
	"repro/internal/energy"
	"repro/internal/harness"
	"repro/internal/hmm"
)

// checkCell applies the conservation laws every design must obey (the
// ones internal/harness/invariants_test.go pins) to one cell's result and
// returns the broken ones.
func checkCell(r harness.RunResult, planned uint64) []string {
	var bad []string
	c := r.Counters
	if c.Requests != r.CPU.LLCMisses {
		bad = append(bad, fmt.Sprintf("requests %d != LLC misses %d", c.Requests, r.CPU.LLCMisses))
	}
	if c.ServedHBM+c.ServedDRAM != c.Requests {
		bad = append(bad, fmt.Sprintf("served HBM %d + DRAM %d != requests %d", c.ServedHBM, c.ServedDRAM, c.Requests))
	}
	if c.Writebacks != r.CPU.Writebacks {
		bad = append(bad, fmt.Sprintf("writebacks %d != CPU writebacks %d", c.Writebacks, r.CPU.Writebacks))
	}
	if r.Design == string(config.DesignNoHBM) && (c.ServedHBM != 0 || r.HBMBytes != 0) {
		bad = append(bad, fmt.Sprintf("no-hbm touched HBM: served %d, %d bytes", c.ServedHBM, r.HBMBytes))
	}
	if r.CPU.Accesses != planned {
		bad = append(bad, fmt.Sprintf("accesses %d != planned %d", r.CPU.Accesses, planned))
	}
	for i, b := range bad {
		bad[i] = r.Design + "/" + r.Bench + ": " + b
	}
	return bad
}

// canonCell is the part of a RunResult that sim_digest covers: every
// simulated statistic, none of the optional telemetry.
type canonCell struct {
	Design    string
	Bench     string
	CPU       cpu.Result
	Counters  hmm.Counters
	Energy    energy.Breakdown
	HBMBytes  uint64
	DRAMBytes uint64
}

func canon(r harness.RunResult) canonCell {
	return canonCell{r.Design, r.Bench, r.CPU, r.Counters, r.Energy, r.HBMBytes, r.DRAMBytes}
}

func cellKey(r harness.RunResult) string { return r.Design + "/" + r.Bench }

func digest(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		// Only a NaN or infinite statistic fails to encode; let it show
		// as a digest mismatch rather than abort the run.
		return "unencodable: " + err.Error()
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// simDigest hashes a workload's canonical per-cell results plus any
// further deterministic output (fig8's normalized tables). A change that
// claims only host time must leave it byte-identical.
func simDigest(runs []harness.RunResult, extra any) string {
	cells := make([]canonCell, len(runs))
	for i, r := range runs {
		cells[i] = canon(r)
	}
	return digest(struct {
		Cells []canonCell
		Extra any `json:",omitempty"`
	}{cells, extra})
}

func cellDigests(runs []harness.RunResult) map[string]string {
	m := make(map[string]string, len(runs))
	for _, r := range runs {
		m[cellKey(r)] = digest(canon(r))
	}
	return m
}
