package check

import (
	"strings"
	"testing"

	"repro/internal/addr"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/hmm"
	"repro/internal/runner"
)

func quickSys(t testing.TB) config.System {
	t.Helper()
	sys := config.Default().Scaled(1024)
	if err := sys.Validate(); err != nil {
		t.Fatalf("scaled system invalid: %v", err)
	}
	return sys
}

// TestQuickSuite is the tier-1 differential oracle: every design times
// every workload family, faults off and on, must report zero violations.
func TestQuickSuite(t *testing.T) {
	s := Suite{Sys: quickSys(t), OpsPerCell: 2000}
	results, err := s.Run()
	if err != nil {
		t.Fatalf("suite: %v", err)
	}
	if want := len(harness.AllDesigns) * len(Families) * 2; len(results) != want {
		t.Fatalf("got %d cells, want %d", len(results), want)
	}
	for _, r := range Violations(results) {
		t.Errorf("%s/%s faults=%v seed=%#x: %v\n  repro: %s",
			r.Design, r.Family, r.Faults, r.Seed, r.Violation, r.Repro)
	}
}

// TestSuiteDeterministic re-runs one faulted cell and expects an
// identical result — the property the deep mode's -parallel diff relies
// on.
func TestSuiteDeterministic(t *testing.T) {
	s := Suite{Sys: quickSys(t), OpsPerCell: 800}
	cell := Cell{Design: config.DesignBumblebee, Family: FamilyAlias, Faults: true}
	a, err := s.RunCell(cell)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.RunCell(cell)
	if err != nil {
		t.Fatal(err)
	}
	if a.Seed != b.Seed || (a.Violation == nil) != (b.Violation == nil) || a.Repro != b.Repro {
		t.Fatalf("cell not deterministic: %+v vs %+v", a, b)
	}
}

// dropWB forwards everything except Writeback — the "forgotten writeback
// accounting" mutant. Embedding the interface (not the concrete type)
// deliberately hides the Inspector so the counter oracle alone must
// catch it.
type dropWB struct{ hmm.MemSystem }

func (d dropWB) Writeback(now uint64, a addr.Addr) {}

// TestMutantDroppedWriteback: the checker must catch a design that
// swallows writebacks, and the shrinker must reduce the repro to a
// handful of ops.
func TestMutantDroppedWriteback(t *testing.T) {
	sys := quickSys(t)
	mk := func() (hmm.MemSystem, error) {
		mem, err := core.New(sys)
		if err != nil {
			return nil, err
		}
		return dropWB{mem}, nil
	}
	ops := GenOps(FamilyZipf, runner.Seed("mutant-wb"), 2000, sys)
	mem, _ := mk()
	v := RunOps(mem, ops, Config{})
	if v == nil {
		t.Fatal("dropped-writeback mutant not caught")
	}
	if v.Kind != "accounting" {
		t.Fatalf("want accounting violation, got %v", v)
	}
	shrunk, sv := Shrink(mk, ops, Config{})
	if sv == nil {
		t.Fatal("shrink lost the violation")
	}
	if len(shrunk) > 64 {
		t.Fatalf("shrunk repro has %d ops, want <= 64", len(shrunk))
	}
	t.Logf("shrunk to %d ops: %s (%v)", len(shrunk), EncodeOps(shrunk), sv)
}

// lyingLocator inverts LocateLine's tier — the "stale BLE / skipped
// invalidate" class of bug, where the metadata's idea of residency
// disagrees with where data is actually served from.
type lyingLocator struct{ *core.Bumblebee }

func (l lyingLocator) LocateLine(a addr.Addr) hmm.Tier {
	switch l.Bumblebee.LocateLine(a) {
	case hmm.TierHBM:
		return hmm.TierDRAM
	case hmm.TierDRAM:
		return hmm.TierHBM
	}
	return hmm.TierNone
}

// TestMutantLyingLocator: serve-tier agreement must catch residency
// metadata that disagrees with the serve path, and shrink it small.
func TestMutantLyingLocator(t *testing.T) {
	sys := quickSys(t)
	mk := func() (hmm.MemSystem, error) {
		mem, err := core.New(sys)
		if err != nil {
			return nil, err
		}
		return lyingLocator{mem}, nil
	}
	ops := GenOps(FamilyZipf, runner.Seed("mutant-loc"), 2000, sys)
	shrunk, sv := Shrink(mk, ops, Config{})
	if sv == nil {
		t.Fatal("lying-locator mutant not caught")
	}
	if sv.Kind != "serve-tier" {
		t.Fatalf("want serve-tier violation, got %v", sv)
	}
	if len(shrunk) > 64 {
		t.Fatalf("shrunk repro has %d ops, want <= 64", len(shrunk))
	}
	t.Logf("shrunk to %d ops: %s (%v)", len(shrunk), EncodeOps(shrunk), sv)
}

// TestShrinkPassingOps: a clean workload shrinks to nothing.
func TestShrinkPassingOps(t *testing.T) {
	sys := quickSys(t)
	mk := func() (hmm.MemSystem, error) { return core.New(sys) }
	ops := GenOps(FamilyScan, runner.Seed("clean"), 300, sys)
	shrunk, sv := Shrink(mk, ops, Config{})
	if shrunk != nil || sv != nil {
		t.Fatalf("passing ops produced a repro: %v", sv)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	sys := quickSys(t)
	ops := GenOps(FamilyAlias, runner.Seed("rt"), 500, sys)
	dec, err := DecodeOps(EncodeOps(ops))
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != len(ops) {
		t.Fatalf("round trip lost ops: %d != %d", len(dec), len(ops))
	}
	for i := range ops {
		if dec[i] != ops[i] {
			t.Fatalf("op %d: %+v != %+v", i, dec[i], ops[i])
		}
	}
	raw := BytesFromOps(ops)
	dec2 := OpsFromBytes(raw, len(ops))
	for i := range ops {
		if dec2[i] != ops[i] {
			t.Fatalf("byte round trip op %d: %+v != %+v", i, dec2[i], ops[i])
		}
	}
	if _, err := DecodeOps("x123"); err == nil {
		t.Fatal("bad op kind accepted")
	}
	if _, err := DecodeOps("r"); err == nil {
		t.Fatal("short token accepted")
	}
}

// TestGenOpsDeterministic: same (family, seed, n) must yield identical
// ops — the contract printed seeds rely on.
func TestGenOpsDeterministic(t *testing.T) {
	sys := quickSys(t)
	for _, fam := range Families {
		a := GenOps(fam, 42, 400, sys)
		b := GenOps(fam, 42, 400, sys)
		if len(a) != 400 || len(b) != 400 {
			t.Fatalf("%s: wrong length", fam)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: op %d differs", fam, i)
			}
		}
		c := GenOps(fam, 43, 400, sys)
		same := true
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
		if same {
			t.Errorf("%s: seed 42 and 43 produced identical streams", fam)
		}
	}
}

// TestTableFormat: the deep-mode report must be grep-able for CI.
func TestTableFormat(t *testing.T) {
	res := []Result{{
		Cell: Cell{Design: config.DesignBumblebee, Family: FamilyZipf},
		Seed: 7, Ops: 100,
	}}
	out := Table(res)
	if !strings.Contains(out, "violations=0") || !strings.Contains(out, "design=bumblebee") {
		t.Fatalf("unexpected table: %q", out)
	}
}
