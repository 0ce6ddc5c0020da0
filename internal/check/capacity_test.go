package check

import (
	"strings"
	"testing"

	"repro/internal/baselines/hybrid2"
	"repro/internal/config"
	"repro/internal/harness"
	"repro/internal/hmm"
	"repro/internal/runner"
)

// Hybrid2 partitions HBM: its POM geometry covers 15/16 of the device and
// its block cache the last 1/16. Bounding every HBM claim by the geometry
// alone left the cache region's frames out of the capacity, and this cell
// of `bbrepro -experiment check -scale 1024 -accesses 20000` reported
// "481 distinct HBM frames claimed but capacity holds 480" at op 17103.
// Page homes are bounded by the geometry and cache copies by the cache
// region, so the cell runs clean.
func TestHybrid2CapacityBoundPerRegion(t *testing.T) {
	s := Suite{Sys: (&harness.Harness{Scale: 1024}).System(), OpsPerCell: 20000}
	r, err := s.RunCell(Cell{Design: config.DesignHybrid2, Family: FamilyScan})
	if err != nil {
		t.Fatal(err)
	}
	if r.Seed != 0xe3c44620ac914e01 {
		t.Fatalf("cell seed %#x, want the pinned 0xe3c44620ac914e01", r.Seed)
	}
	if r.Violation != nil {
		t.Fatalf("%v\n  repro: %s", r.Violation, r.Repro)
	}
}

// smallCache under-reports Hybrid2's cache region, so the region bound
// must fire: splitting the bound by region does not loosen it.
type smallCache struct{ *hybrid2.System }

func (smallCache) InspectCacheFrames() uint64 { return 1 }

func TestCacheRegionBoundFires(t *testing.T) {
	sys := quickSys(t)
	mem, err := harness.Build(config.DesignHybrid2, sys)
	if err != nil {
		t.Fatal(err)
	}
	var m hmm.MemSystem = smallCache{mem.(*hybrid2.System)}
	v := RunOps(m, GenOps(FamilyScan, runner.Seed("mutant-cache"), 2000, sys), Config{})
	if v == nil || v.Kind != "capacity" || !strings.Contains(v.Msg, "cache region holds 1") {
		t.Fatalf("violation = %v, want the cache-region capacity bound", v)
	}
}
