package check

import (
	"repro/internal/addr"
	"repro/internal/config"
)

// Family names a property-based workload generator. Every family is a
// pure function of (seed, n, system geometry): same inputs, same ops.
type Family string

const (
	// FamilyZipf hammers a skewed hot set over a footprint ~3x HBM.
	FamilyZipf Family = "zipf"
	// FamilyScan streams sequentially with occasional random jumps —
	// worst case for caching, exercises eviction churn.
	FamilyScan Family = "scan"
	// FamilyPhase switches between disjoint hot regions every n/4 ops,
	// forcing wholesale migration/eviction waves.
	FamilyPhase Family = "phase"
	// FamilyAlias sweeps the full address space once (driving sets past
	// their HBM capacity into aliased allocation) then hammers a single
	// remapping set, mixing in out-of-range addresses to exercise
	// clamping.
	FamilyAlias Family = "alias"
	// FamilyLLC is the stream the figures execute: a Table II profile,
	// picked by the seed, filtered through the SRAM hierarchy; LLC misses
	// become demand ops and LLC writebacks WB ops, in issue order.
	FamilyLLC Family = "llc"
)

// Families is every generator, in the order suites run them.
var Families = []Family{FamilyZipf, FamilyScan, FamilyPhase, FamilyAlias, FamilyLLC}

// rng is splitmix64: tiny, seedable, and stable across Go releases
// (unlike math/rand's unspecified stream).
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

func (r *rng) intn(n uint64) uint64 {
	if n == 0 {
		return 0
	}
	return r.next() % n
}

func (r *rng) f64() float64 {
	return float64(r.next()>>11) / float64(1<<53)
}

// GenOps produces n deterministic operations of the given family against
// the address space implied by sys. Roughly 30% of accesses write, and
// ~12% of ops are writebacks of recently touched lines, so dirty-data
// paths (eviction writeback, retirement relocation of dirty frames) see
// real traffic.
func GenOps(family Family, seed uint64, n int, sys config.System) []Op {
	if family == FamilyLLC {
		return llcOps(seed, n, sys)
	}
	r := &rng{s: seed}
	total := sys.DRAM.CapacityBytes + sys.HBM.CapacityBytes
	ops := make([]Op, 0, n)
	var recent [32]addr.Addr
	nrecent := 0
	emit := func(a addr.Addr) {
		a &^= 63 // line-align
		roll := r.intn(100)
		if roll < 12 && nrecent > 0 {
			ops = append(ops, Op{Addr: recent[r.intn(uint64(nrecent))], WB: true})
			return
		}
		ops = append(ops, Op{Addr: a, Write: roll < 12+30})
		recent[int(r.intn(uint64(len(recent))))] = a
		if nrecent < len(recent) {
			nrecent++
		}
	}
	switch family {
	case FamilyZipf:
		foot := sys.HBM.CapacityBytes * 3
		if foot > total {
			foot = total
		}
		pages := foot / 4096
		for len(ops) < n {
			u := r.f64()
			page := uint64(u * u * u * u * float64(pages)) // heavy head
			if page >= pages {
				page = pages - 1
			}
			emit(addr.Addr(page*4096 + r.intn(4096)))
		}
	case FamilyScan:
		pos := uint64(0)
		for len(ops) < n {
			if r.intn(1000) < 5 {
				pos = r.intn(total)
			}
			emit(addr.Addr(pos % total))
			pos += 64
		}
	case FamilyPhase:
		regions := uint64(4)
		span := total / regions
		for len(ops) < n {
			phase := uint64(len(ops)) * regions / uint64(n)
			base := phase * span
			hot := span / 8
			if hot < 4096 {
				hot = span
			}
			emit(addr.Addr(base + r.intn(hot)))
		}
	case FamilyAlias:
		page := sys.PageBytes
		sweep := total + total/8 // deliberately beyond capacity: clamping
		p := uint64(0)
		for len(ops) < n {
			switch {
			case p*page < sweep:
				emit(addr.Addr(p * page))
				p++
			case r.intn(10) < 2:
				// out-of-range probe
				emit(addr.Addr(total + r.intn(total)))
			default:
				// hammer one remapping set: stride of sets*pageBytes keeps
				// hitting set 0 on set-indexed designs
				sets := sys.HBM.CapacityBytes / sys.PageBytes / sys.HBMWays
				if sets == 0 {
					sets = 1
				}
				stride := sets * page
				emit(addr.Addr((r.intn(total/stride+1)*stride + r.intn(page)) % total))
			}
		}
	default:
		// Unknown family: uniform random, still deterministic.
		for len(ops) < n {
			emit(addr.Addr(r.intn(total)))
		}
	}
	return ops[:n]
}
