package harness

import (
	"runtime"
	"testing"

	"repro/internal/config"
)

// stateBudgets caps what Build allocates at Table I for the designs whose
// tables dominate the footprint: Alloy's one word per TAD, Chameleon's
// flat per-group arrays and Hybrid2's int16 remapping table.
var stateBudgets = map[config.Design]uint64{
	config.DesignAlloy:     64 << 20,
	config.DesignChameleon: 20 << 20,
	config.DesignHybrid2:   28 << 20,
}

// nestedStateBytes is what Build allocated over AllDesigns at Table I
// when every baseline kept its tables as slices of structs holding full
// tags: 357 868 896 bytes (341.3 MiB). The packed layouts must at least
// halve it.
const nestedStateBytes = 357868896

// TestDesignStateBytes measures the bytes Build allocates for every
// design at Table I scale. The delta of runtime.MemStats.TotalAlloc
// counts every allocation Build makes, whether or not it is still live.
func TestDesignStateBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every design at Table I scale")
	}
	var sum uint64
	for _, d := range AllDesigns {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		mem, err := Build(d, config.Default())
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", d, err)
		}
		runtime.KeepAlive(mem)
		got := after.TotalAlloc - before.TotalAlloc
		sum += got
		t.Logf("%-10s %11d B (%6.1f MiB)", d, got, float64(got)/(1<<20))
		if b, ok := stateBudgets[d]; ok && got > b {
			t.Errorf("%s allocates %d B at Table I, budget %d B", d, got, b)
		}
	}
	t.Logf("%-10s %11d B (%6.1f MiB)", "total", sum, float64(sum)/(1<<20))
	if sum > nestedStateBytes/2 {
		t.Errorf("designs allocate %d B in all at Table I, want at most half of %d B", sum, nestedStateBytes)
	}
}
