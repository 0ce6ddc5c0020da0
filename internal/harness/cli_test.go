package harness

import (
	"testing"

	"repro/internal/obs"
)

// TestCLIJournalFsyncGauge: bb_sweep_journal_fsyncs_total reads the
// journal's own fsync count, so a checkpointed sweep's /metrics agrees
// with the journal instead of reporting zero.
func TestCLIJournalFsyncGauge(t *testing.T) {
	of := &obs.Flags{Parallel: 1, LogLevel: "error"}
	cli, err := StartCLI(of, CLIConfig{Tool: "test", Sweep: "table2",
		Scale: 1024, Accesses: 2000, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if err := cli.OpenJournal("table2", ""); err != nil {
		t.Fatal(err)
	}
	h := cli.Harness
	if _, err := h.Table2(); err != nil {
		t.Fatal(err)
	}
	got, want := h.Obs.Snapshot().JournalFsyncs, h.Journal.Fsyncs()
	if want == 0 || got != want {
		t.Errorf("gauge reads %d fsyncs, journal issued %d (want equal and > 0)", got, want)
	}
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
}
