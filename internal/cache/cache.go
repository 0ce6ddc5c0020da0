// Package cache implements the on-chip SRAM cache hierarchy of Table I:
// set-associative write-back caches with LRU, SRRIP and DRRIP replacement,
// composed into an L1/L2/L3 hierarchy that turns a core's load/store stream
// into the LLC-miss stream consumed by the hybrid memory system.
//
// A Cache keeps its state in two flat slices of machine words:
//
//   - One word per line, tag<<2 | dirty | valid, indexed by set*ways+way;
//     an empty way is 0. A fill always takes the first empty way and
//     nothing invalidates a line, so a set's valid ways form a prefix and
//     a probe stops at the first empty word.
//   - One replacement word per set. Under LRU it is the set's recency
//     order: 4-bit way numbers, the way at rank r (0 the most recent) in
//     bits [4r, 4r+4). Under SRRIP and DRRIP it holds every way's 2-bit
//     RRPV side by side, way w in bits [2w, 2w+2).
//
// Every replacement decision is a handful of word operations with no
// branch on the data. LRU finds a way's rank with a zero-nibble search
// and evicts the way at rank ways-1. RRIP ages every RRPV with one add
// and evicts the first way at the maximum. Sixteen 4-bit way numbers
// fill the word, so a cache has at most 16 ways (config.MaxCacheWays).
// The reference model in policy_test.go holds every decision to the
// plain algorithms.
package cache

import (
	"fmt"
	"math/bits"

	"repro/internal/addr"
	"repro/internal/config"
)

// Stats counts the events of a single cache level.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Writebacks uint64 // dirty evictions
}

// HitRate returns hits / (hits+misses), or 0 for an untouched cache.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// policyKind selects the replacement policy compiled into the access
// loop. The cache keeps its policy state in one word per set and
// switches on the kind, so the hit/victim/fill path runs without dynamic
// dispatch or per-set slice chasing. The reference Policy
// implementations in policy_test.go describe the same algorithms behind
// an interface, and the tests there hold the cache to their decisions.
type policyKind uint8

const (
	policyLRU policyKind = iota
	policySRRIP
	policyDRRIP
)

// rrpvMax is the 2-bit re-reference prediction value ceiling.
const rrpvMax = 3

const (
	lineValid    = 1 << 0
	lineDirty    = 1 << 1
	lineTagShift = 2 // tag occupies bits [2,64)
)

const (
	nibbleLow = 0x1111111111111111 // the low bit of every 4-bit field
	// lruIdentity is a set's LRU order before any fill: rank r holds way
	// r. A touch only moves ways below the cache's associativity, so the
	// ranks at and past it keep numbers no way has.
	lruIdentity = 0xFEDCBA9876543210
)

// Cache is one set-associative write-back, write-allocate cache level,
// laid out as the package documentation describes.
type Cache struct {
	name      string
	ways      int
	lineShift uint
	setMask   uint64 // sets-1 (sets is a power of two)
	setShift  uint   // log2(sets)

	lines []uint64 // [set*ways+way]: tag<<2 | lineDirty | lineValid
	repl  []uint64 // [set]: LRU recency order or packed RRPVs

	kind    policyKind
	lruLast uint   // LRU: bit offset of rank ways-1, the victim's
	rrpvLow uint64 // RRIP: the low bit of every way's RRPV field
	// RRIP state beyond the RRPVs, shared by SRRIP and DRRIP. (The
	// reference DRRIP keeps one RRPV array per component policy, but
	// every operation leaves the two equal, so one word carries both.)
	fills uint64 // BRRIP bimodal fill counter (DRRIP only)
	psel  int    // DRRIP set-dueling selector
	stats Stats
}

// drripDuelMask picks the leader sets: set&mask==0 leads SRRIP, ==1 leads
// BRRIP (matching the reference DRRIP policy).
const drripDuelMask = 31

// NewCache builds a cache level from its Table I description.
func NewCache(cfg config.CacheLevel) (*Cache, error) {
	if cfg.LineBytes == 0 || cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		return nil, fmt.Errorf("cache %s: line size %d not a power of two", cfg.Name, cfg.LineBytes)
	}
	if err := cfg.CheckWays(); err != nil {
		return nil, err
	}
	linesTotal := cfg.SizeBytes / cfg.LineBytes
	if uint64(cfg.Ways) > linesTotal || linesTotal%uint64(cfg.Ways) != 0 {
		return nil, fmt.Errorf("cache %s: %d lines not divisible into %d ways", cfg.Name, linesTotal, cfg.Ways)
	}
	sets := int(linesTotal / uint64(cfg.Ways))
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("cache %s: %d sets not a power of two", cfg.Name, sets)
	}
	c := &Cache{
		name:    cfg.Name,
		ways:    cfg.Ways,
		setMask: uint64(sets - 1),
		lines:   make([]uint64, sets*cfg.Ways),
		repl:    make([]uint64, sets),
		lruLast: 4 * uint(cfg.Ways-1),
		rrpvLow: 0x5555555555555555 >> (64 - 2*cfg.Ways),
	}
	for s := cfg.LineBytes; s > 1; s >>= 1 {
		c.lineShift++
	}
	for s := sets; s > 1; s >>= 1 {
		c.setShift++
	}
	switch cfg.Policy {
	case "SRRIP":
		c.kind = policySRRIP
	case "DRRIP":
		c.kind = policyDRRIP
	default:
		c.kind = policyLRU
		for i := range c.repl {
			c.repl[i] = lruIdentity
		}
	}
	return c, nil
}

// Name returns the level name (L1D, L2, ...).
func (c *Cache) Name() string { return c.name }

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

func (c *Cache) index(a addr.Addr) (set int, tag uint64) {
	lineNo := uint64(a) >> c.lineShift
	return int(lineNo & c.setMask), lineNo >> c.setShift
}

// Eviction describes a line pushed out of a cache level.
type Eviction struct {
	Addr  addr.Addr // base address of the evicted line
	Dirty bool
}

// lruTouch moves way to rank 0 of the recency order, and every way more
// recent than it up one rank.
func lruTouch(order uint64, way int) uint64 {
	// order is a permutation of the 16 nibble values, so x has exactly
	// one zero nibble, at way's rank. The zero-nibble test can also mark
	// nibbles above a zero one, never below, so its lowest mark is exact.
	x := order ^ uint64(way)*nibbleLow
	at := uint(bits.TrailingZeros64((x-nibbleLow)&^x&(nibbleLow<<3))) - 3 // 4*rank
	newer := uint64(1)<<at - 1                                            // ranks below way's
	return order&^(newer<<4|0xF) | (order&newer)<<4 | uint64(way)
}

// rripVictim ages every RRPV in rrpv by the distance from the largest to
// rrpvMax and returns the first way then at rrpvMax, with the aged word.
// low marks the low bit of each way's field. This is the reference's
// loop of "scan for rrpvMax, else age everything by one" in closed form.
func rripVictim(rrpv, low uint64) (int, uint64) {
	high := rrpv & (low << 1)
	anyHigh := (high | -high) >> 63 // 1 when some RRPV is 2 or 3
	// The largest RRPV's low bit: set among the ways whose high bit is
	// set, or among all ways when no high bit is.
	top := rrpv & (high>>1 | low&(anyHigh-1))
	max := anyHigh<<1 | (top|-top)>>63
	// Every field is at most max, so adding the distance to each field
	// in one add cannot carry into its neighbour.
	rrpv += (rrpvMax - max) * low
	return bits.TrailingZeros64(rrpv&(rrpv>>1)&low) >> 1, rrpv
}

// fillRRPV updates RRIP state for a fill into set and returns the RRPV
// the new line starts with.
func (c *Cache) fillRRPV(set int) uint64 {
	if c.kind == policySRRIP {
		return rrpvMax - 1 // long re-reference interval
	}
	// DRRIP. A fill means the previous access to this set missed; leaders
	// vote.
	switch set & drripDuelMask {
	case 0:
		if c.psel < 512 {
			c.psel++ // SRRIP leader missed: penalize SRRIP
		}
	case 1:
		if c.psel > -512 {
			c.psel--
		}
	}
	if c.useSRRIP(set) {
		return rrpvMax - 1
	}
	// BRRIP: mostly distant (rrpvMax), occasionally long.
	c.fills++
	if c.fills%32 == 0 {
		return rrpvMax - 1
	}
	return rrpvMax
}

func (c *Cache) useSRRIP(set int) bool {
	switch set & drripDuelMask {
	case 0:
		return true
	case 1:
		return false
	}
	return c.psel <= 0
}

// Access looks up a in the cache. On a miss the line is allocated
// (write-allocate) and the victim, if any, is returned. write marks the
// line dirty.
func (c *Cache) Access(a addr.Addr, write bool) (hit bool, ev Eviction, evicted bool) {
	set, tag := c.index(a)
	row := c.lines[set*c.ways : (set+1)*c.ways]
	var dirty uint64
	if write {
		dirty = lineDirty
	}
	// Ignoring the dirty bit makes the probe a single compare: only a
	// valid line with a matching tag can equal the target.
	target := tag<<lineTagShift | lineValid
	way := len(row) // the first empty way; len(row) when the set is full
	for w, v := range row {
		if v&^lineDirty == target {
			c.stats.Hits++
			row[w] = v | dirty
			if c.kind == policyLRU {
				c.repl[set] = lruTouch(c.repl[set], w)
			} else {
				c.repl[set] &^= rrpvMax << (2 * uint(w)) // re-referenced: RRPV 0
			}
			return true, Eviction{}, false
		}
		if v == 0 {
			way = w
			break
		}
	}
	c.stats.Misses++
	r := c.repl[set]
	if way == len(row) {
		if c.kind == policyLRU {
			way = int(r >> c.lruLast & 0xF)
		} else {
			way, r = rripVictim(r, c.rrpvLow)
		}
		old := row[way]
		ev = Eviction{Addr: c.lineAddr(set, old>>lineTagShift), Dirty: old&lineDirty != 0}
		evicted = true
		if ev.Dirty {
			c.stats.Writebacks++
		}
	}
	if c.kind == policyLRU {
		r = lruTouch(r, way)
	} else {
		at := 2 * uint(way)
		r = r&^(rrpvMax<<at) | c.fillRRPV(set)<<at
	}
	c.repl[set] = r
	row[way] = target | dirty
	return false, ev, evicted
}

func (c *Cache) lineAddr(set int, tag uint64) addr.Addr {
	return addr.Addr((tag<<c.setShift | uint64(set)) << c.lineShift)
}

// Hierarchy chains cache levels; Access walks L1 -> LLC and reports
// whether the request missed the LLC along with any dirty line evicted
// from the LLC (which must be written back to memory).
type Hierarchy struct {
	levels []*Cache
	lats   []uint64
	wbBuf  []addr.Addr
}

// NewHierarchy builds the full hierarchy from Table I cache descriptions,
// ordered innermost first.
func NewHierarchy(levels []config.CacheLevel) (*Hierarchy, error) {
	if len(levels) == 0 {
		return nil, fmt.Errorf("cache: empty hierarchy")
	}
	h := &Hierarchy{}
	for _, cfg := range levels {
		c, err := NewCache(cfg)
		if err != nil {
			return nil, err
		}
		h.levels = append(h.levels, c)
		h.lats = append(h.lats, cfg.LatencyCyc)
	}
	return h, nil
}

// Result describes the outcome of one load/store through the hierarchy.
type Result struct {
	HitLevel   int    // 0-based level index, or -1 on LLC miss
	HitLatency uint64 // hit latency in CPU cycles when HitLevel >= 0
	// Writebacks are dirty lines evicted past the LLC that must be written
	// to memory. The slice is reused by the next Access call.
	Writebacks []addr.Addr
}

// Access sends a load/store through the hierarchy. Lower levels allocate
// on miss (non-inclusive, write-back). Dirty evictions cascade: a dirty
// line evicted from Li is written into Li+1; only LLC dirty evictions
// escape to memory and are reported in Result.Writebacks.
func (h *Hierarchy) Access(a addr.Addr, write bool) Result {
	h.wbBuf = h.wbBuf[:0]
	llc := len(h.levels) - 1
	res := Result{HitLevel: -1}
	for i, c := range h.levels {
		hit, ev, evicted := c.Access(a, write)
		// Cascade this level's dirty eviction into the next level.
		if evicted && ev.Dirty {
			if i == llc {
				h.wbBuf = append(h.wbBuf, ev.Addr)
			} else {
				h.installDirty(i+1, ev.Addr)
			}
		}
		if hit {
			res.HitLevel = i
			res.HitLatency = h.lats[i]
			break
		}
	}
	res.Writebacks = h.wbBuf
	return res
}

// installDirty writes an evicted dirty line into level i, cascading
// further dirty evictions outward; LLC dirty evictions are collected as
// memory writebacks.
func (h *Hierarchy) installDirty(i int, a addr.Addr) {
	for ; i < len(h.levels); i++ {
		_, ev, evicted := h.levels[i].Access(a, true)
		if !evicted || !ev.Dirty {
			return
		}
		a = ev.Addr
	}
	h.wbBuf = append(h.wbBuf, a)
}

// Levels returns the cache levels, innermost first.
func (h *Hierarchy) Levels() []*Cache { return h.levels }

// LLC returns the last-level cache.
func (h *Hierarchy) LLC() *Cache { return h.levels[len(h.levels)-1] }

// Latencies returns the hit latency of every level in CPU cycles,
// innermost first. The slice is shared; callers must not modify it.
func (h *Hierarchy) Latencies() []uint64 { return h.lats }

// MissLatencyBase returns the cycles spent traversing all levels before a
// request reaches memory (sum of hit latencies — the lookup path).
func (h *Hierarchy) MissLatencyBase() uint64 {
	var total uint64
	for _, l := range h.lats {
		total += l
	}
	return total
}
