package check

import (
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/harness"
	"repro/internal/hmm"
	"repro/internal/runner"
)

// fuzzOps caps ops per fuzz execution so individual runs stay fast.
const fuzzOps = 256

// Fuzz inputs are a single byte stream: data[0] is a mode/design
// selector, data[1:] decodes as 9-byte op records (OpsFromBytes).
// A single []byte argument keeps the mutator fast — multi-argument
// corpora fuzz orders of magnitude slower.
func fuzzSeedCorpus(f *testing.F, sys config.System) {
	for i, fam := range Families {
		raw := BytesFromOps(GenOps(fam, runner.Seed("fuzz", string(fam)), 64, sys))
		f.Add(append([]byte{byte(i)}, raw...))
	}
}

// bumblebeeVariants are the Figure 7 variants FuzzLockstepBumblebee
// chooses among: the adaptive design first, then the four fixed
// cHBM:mHBM ratios, No-HMF and No-Multi, whose movement decisions
// differ from the adaptive design's.
var bumblebeeVariants = []func(*config.BumblebeeOptions){
	func(*config.BumblebeeOptions) {},
	func(o *config.BumblebeeOptions) { o.FixedRatio, o.FixedCacheRatio = true, 0 },
	func(o *config.BumblebeeOptions) { o.FixedRatio, o.FixedCacheRatio = true, 0.25 },
	func(o *config.BumblebeeOptions) { o.FixedRatio, o.FixedCacheRatio = true, 0.5 },
	func(o *config.BumblebeeOptions) { o.FixedRatio, o.FixedCacheRatio = true, 1 },
	func(o *config.BumblebeeOptions) { o.NoHMF = true },
	func(o *config.BumblebeeOptions) { o.NoMultiplex = true },
}

// FuzzLockstepBumblebee runs arbitrary op streams through Bumblebee
// under the full lockstep oracle. The selector byte's low bit turns on
// deterministic fault injection and its bits 3 and up pick a
// bumblebeeVariants entry, so selectors 0-7 (the family seeds and the
// committed corpus) run the adaptive design.
func FuzzLockstepBumblebee(f *testing.F) {
	sys := config.Default().Scaled(1024)
	fuzzSeedCorpus(f, sys)
	for vi := range bumblebeeVariants {
		fam := Families[vi%len(Families)]
		raw := BytesFromOps(GenOps(fam, runner.Seed("fuzz", string(fam)), 64, sys))
		for flt := 0; flt < 2; flt++ {
			f.Add(append([]byte{byte(vi<<3 | flt)}, raw...))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		sel := data[0]
		ops := OpsFromBytes(data[1:], fuzzOps)
		if len(ops) == 0 {
			return
		}
		s := sys
		bumblebeeVariants[int(sel>>3)%len(bumblebeeVariants)](&s.Bumblebee)
		if sel&1 != 0 {
			s.Faults = harness.FaultsAtRate(500)
		}
		mem, err := core.New(s)
		if err != nil {
			t.Skip(err)
		}
		if sel&1 != 0 {
			dev := mem.Devices()
			dev.AttachFaults(faults.New(s.Faults, dev.Geom.HBMPages(), uint64(sel)+1))
		}
		if v := RunOps(mem, ops, Config{Every: 32}); v != nil {
			t.Fatalf("sel=%d (%s): %v\nrepro: %s", sel, mem.Name(), v, EncodeOps(ops[:v.OpIndex+1]))
		}
	})
}

// FuzzLockstepBaselines drives one baseline, selected by the first byte,
// through the oracle with arbitrary op streams.
func FuzzLockstepBaselines(f *testing.F) {
	sys := config.Default().Scaled(1024)
	fuzzSeedCorpus(f, sys)
	designs := []config.Design{
		config.DesignHybrid2, config.DesignChameleon, config.DesignBanshee,
		config.DesignAlloy, config.DesignUnison, config.DesignNoHBM,
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		d := designs[int(data[0])%len(designs)]
		ops := OpsFromBytes(data[1:], fuzzOps)
		if len(ops) == 0 {
			return
		}
		var mem hmm.MemSystem
		mem, err := harness.Build(d, sys)
		if err != nil {
			t.Skip(err)
		}
		if v := RunOps(mem, ops, Config{Every: 32}); v != nil {
			t.Fatalf("design=%s: %v\nrepro: %s", d, v, EncodeOps(ops[:v.OpIndex+1]))
		}
	})
}
