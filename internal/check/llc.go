package check

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/cpu"
	"repro/internal/trace"
)

const (
	// llcWarmup accesses warm the caches before llcOps records requests,
	// so the ops come from the steady state, writebacks included.
	llcWarmup = 1 << 16
	// llcAccessesPerOp bounds how many accesses llcOps filters per op it
	// needs, so a profile the caches absorb ends quickly.
	llcAccessesPerOp = 64
)

// llcOps builds FamilyLLC: the post-LLC request stream of a Table II
// profile scaled to sys, exactly as cpu.Run would issue it to a design.
// The profile's initialization sweep is left out (it is the same
// sequential pass for every profile, which FamilyScan covers), and the
// first llcWarmup accesses only warm the caches. Should the hierarchy
// absorb the profile, the remainder falls back to uniform random ops.
func llcOps(seed uint64, n int, sys config.System) []Op {
	bs := trace.TableII()
	b := bs[seed%uint64(len(bs))]
	if scale := config.Default().HBM.CapacityBytes / sys.HBM.CapacityBytes; scale > 1 {
		b = b.Scale(scale)
	}
	p := b.Profile
	p.Seed = seed
	p.InitSweep = false
	gen, err := trace.NewSynthetic(p)
	if err != nil {
		panic(fmt.Sprintf("check: llc family: %v", err))
	}
	hier, err := cache.NewHierarchy(sys.Caches)
	if err != nil {
		panic(fmt.Sprintf("check: llc family: %v", err))
	}
	ops := make([]Op, 0, n)
	f := cpu.NewFilter(hier, &trace.Limit{S: gen, N: llcWarmup + uint64(n)*llcAccessesPerOp})
	ch := cpu.NewChunk()
	for filtered := 0; len(ops) < n; filtered += ch.Len() {
		if ok, _ := f.Next(ch); !ok {
			break
		}
		if filtered >= llcWarmup {
			ch.Requests(func(a addr.Addr, write, wb bool) {
				ops = append(ops, Op{Addr: a, Write: write, WB: wb})
			})
		}
	}
	if len(ops) < n {
		ops = append(ops, GenOps("", seed, n-len(ops), sys)...)
	}
	return ops[:n]
}
