package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/harness"
	"repro/internal/trace"
	"repro/internal/tracecodec"
)

// runMainEnv makes the test binary run main instead of the tests, so the
// tests drive the real command line without building a separate binary.
const runMainEnv = "BUMBLEBEE_SIM_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// run runs the command with args and returns its stdout, its stderr,
// and the error exec reports for a nonzero exit.
func run(args ...string) (stdout, stderr string, err error) {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err = cmd.Run()
	return out.String(), errOut.String(), err
}

// sim runs the command with args and returns its stdout.
func sim(t *testing.T, args ...string) string {
	t.Helper()
	stdout, stderr, err := run(args...)
	if err != nil {
		t.Fatalf("bumblebee-sim %s: %v\n%s", strings.Join(args, " "), err, stderr)
	}
	return stdout
}

// field returns the value printed on the single-run line labelled name.
func field(t *testing.T, out, name string) string {
	t.Helper()
	m := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` +(\S+)`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no %q line in output:\n%s", name, out)
	}
	return m[1]
}

// TestSingleRunMatchesMatrixCell: a single run is the matrix cell of the
// same design and benchmark, since both go through the harness.
func TestSingleRunMatchesMatrixCell(t *testing.T) {
	args := []string{"-bench", "mcf", "-scale", "1024", "-accesses", "20000", "-parallel", "1"}
	single := sim(t, append([]string{"-design", "bumblebee"}, args...)...)
	matrix := sim(t, append([]string{"-design", "bumblebee,hybrid2"}, args...)...)

	row := regexp.MustCompile(`(?m)^bumblebee +mcf +(\S+) +(\S+) +(\S+) +(\S+)%`).FindStringSubmatch(matrix)
	if row == nil {
		t.Fatalf("no bumblebee/mcf row in matrix output:\n%s", matrix)
	}
	served := regexp.MustCompile(`served HBM (\S+)%`).FindStringSubmatch(single)
	if served == nil {
		t.Fatalf("no served-HBM share in single-run output:\n%s", single)
	}
	for i, got := range []string{field(t, single, "IPC"), field(t, single, "MPKI"), field(t, single, "avg miss lat"), served[1]} {
		if got != row[i+1] {
			t.Errorf("single run column %d = %s, matrix row has %s\nsingle:\n%s\nmatrix:\n%s", i, got, row[i+1], single, matrix)
		}
	}
}

// TestTraceRunMatchesReplaySweep: -trace reads a BBT1 recording the way
// bbserve does and simulates it like the harness's replay sweep.
func TestTraceRunMatchesReplaySweep(t *testing.T) {
	const path = "../../internal/tracecodec/testdata/fixture.bbt1"
	out := sim(t, "-design", "bumblebee", "-trace", path, "-scale", "1024", "-accesses", "20000")

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	h := harness.New()
	h.Scale, h.Accesses, h.Parallel = 1024, 20000, 1
	runs, err := h.ReplaySweep([]config.Design{config.DesignBumblebee}, "fixture", func() (trace.Stream, error) {
		r, err := tracecodec.Open(bytes.NewReader(raw))
		if err != nil {
			return nil, err
		}
		return tracecodec.NewStream(r), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := runs[0].CPU
	for _, c := range []struct{ name, want string }{
		{"instructions", fmt.Sprint(want.Instructions)},
		{"cycles", fmt.Sprint(want.Cycles)},
		{"IPC", fmt.Sprintf("%.3f", want.IPC())},
	} {
		if got := field(t, out, c.name); got != c.want {
			t.Errorf("-trace %s = %s, ReplaySweep gives %s", c.name, got, c.want)
		}
	}
}

// TestCheckpointResume: a checkpointed matrix run and its resume print
// the same table, with every cell replayed from the journal, and a
// resume that names a different checkpoint directory is refused.
func TestCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	matrix := []string{"-design", "bumblebee,alloy", "-bench", "mcf", "-scale", "1024", "-accesses", "20000"}
	first := sim(t, append(matrix, "-checkpoint", dir)...)

	resumed, stderr, err := run(append(matrix, "-resume", dir)...)
	if err != nil {
		t.Fatalf("-resume: %v\n%s", err, stderr)
	}
	if resumed != first {
		t.Errorf("resumed stdout differs from the checkpointed run\n--- resumed ---\n%s--- first ---\n%s", resumed, first)
	}
	if want := "2 checkpointed cells will replay"; !strings.Contains(stderr, want) {
		t.Errorf("resume stderr lacks %q:\n%s", want, stderr)
	}

	if _, stderr, err := run(append(matrix, "-resume", dir, "-checkpoint", t.TempDir())...); err == nil {
		t.Errorf("-resume A -checkpoint B succeeded:\n%s", stderr)
	}
}

// TestResumeWithOtherSystemFlags: the journal header does not carry
// -block, -page or -faults, but each journaled cell's key covers the
// whole system, so resuming a matrix under other values re-runs every
// cell those values change and prints what a fresh run prints.
func TestResumeWithOtherSystemFlags(t *testing.T) {
	dir := t.TempDir()
	matrix := []string{"-design", "bumblebee,alloy", "-bench", "mcf,wrf", "-scale", "1024", "-accesses", "20000", "-parallel", "2"}
	sim(t, append(matrix, "-block", "2", "-checkpoint", dir)...)
	for _, flags := range [][]string{{"-block", "4"}, {"-faults", "10"}} {
		args := append(append([]string{}, matrix...), flags...)
		fresh := sim(t, args...)
		resumed := sim(t, append(args, "-resume", dir)...)
		if resumed != fresh {
			t.Errorf("resume with %v differs from a fresh run\n--- resumed ---\n%s--- fresh ---\n%s", flags, resumed, fresh)
		}
	}
}
