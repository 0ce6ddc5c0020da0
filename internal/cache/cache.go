package cache

import (
	"fmt"

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
// loop. The standalone Policy implementations in policy.go describe the
// same algorithms behind an interface; the cache keeps its policy state
// in flat arrays and switches on the kind instead, so the hit/victim/fill
// path runs without dynamic dispatch or per-set slice chasing. Decisions
// are identical to the interface implementations.
type policyKind uint8

const (
	policyLRU policyKind = iota
	policySRRIP
	policyDRRIP
)

const (
	lineValid     = 1 << 0
	lineDirty     = 1 << 1
	lineShiftBits = 2 // tag occupies bits [2,64)
)

// Cache is one set-associative write-back, write-allocate cache level.
// Line state is struct-of-arrays: each line is a single packed word
// (tag<<2 | dirty | valid) in one flat slice indexed by set*ways+way, so a
// tag probe scans one contiguous run of machine words with one load per
// way.
type Cache struct {
	name      string
	sets      int
	ways      int
	lineBytes uint64
	lineShift uint
	setMask   uint64 // sets-1 (sets is a power of two)
	setShift  uint   // log2(sets)

	lines []uint64 // [set*ways+way]: tag<<2 | lineDirty | lineValid

	kind policyKind
	// LRU state: per-line stamps against a per-set logical clock.
	stamp []uint64 // [set*ways+way]
	clock []uint64 // [set]
	// RRIP state, shared by SRRIP and DRRIP. (The original DRRIP kept one
	// RRPV array per component policy, but every operation left the two
	// arrays equal, so one array carries both.)
	rrpv  []uint8 // [set*ways+way]
	fills uint64  // BRRIP bimodal fill counter (DRRIP only)
	psel  int     // DRRIP set-dueling selector
	stats Stats
}

// drripDuelMask picks the leader sets: set&mask==0 leads SRRIP, ==1 leads
// BRRIP (matching the standalone DRRIP policy).
const drripDuelMask = 31

// NewCache builds a cache level from its Table I description.
func NewCache(cfg config.CacheLevel) (*Cache, error) {
	if cfg.LineBytes == 0 || cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		return nil, fmt.Errorf("cache %s: line size %d not a power of two", cfg.Name, cfg.LineBytes)
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
		name:      cfg.Name,
		sets:      sets,
		ways:      cfg.Ways,
		lineBytes: cfg.LineBytes,
		setMask:   uint64(sets - 1),
		lines:     make([]uint64, sets*cfg.Ways),
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
	}
	if c.kind == policyLRU {
		c.stamp = make([]uint64, sets*cfg.Ways)
		c.clock = make([]uint64, sets)
	} else {
		c.rrpv = make([]uint8, sets*cfg.Ways)
		for i := range c.rrpv {
			c.rrpv[i] = rrpvMax
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

// onHit updates replacement state for a hit on way of set.
func (c *Cache) onHit(set, base, way int) {
	if c.kind == policyLRU {
		c.clock[set]++
		c.stamp[base+way] = c.clock[set]
		return
	}
	c.rrpv[base+way] = 0
}

// onFill updates replacement state for a fill into way of set.
func (c *Cache) onFill(set, base, way int) {
	switch c.kind {
	case policyLRU:
		c.clock[set]++
		c.stamp[base+way] = c.clock[set]
	case policySRRIP:
		c.rrpv[base+way] = rrpvMax - 1 // long re-reference interval
	default: // DRRIP
		// A fill means the previous access to this set missed; leaders vote.
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
			c.rrpv[base+way] = rrpvMax - 1
		} else {
			// BRRIP: mostly distant (rrpvMax), occasionally long.
			c.fills++
			if c.fills%32 == 0 {
				c.rrpv[base+way] = rrpvMax - 1
			} else {
				c.rrpv[base+way] = rrpvMax
			}
		}
	}
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

// victim selects the way to evict from set. Every way is valid.
func (c *Cache) victim(set, base int) int {
	if c.kind == policyLRU {
		row := c.stamp[base : base+c.ways]
		victim, min := 0, row[0]
		for w := 1; w < len(row); w++ {
			if row[w] < min {
				victim, min = w, row[w]
			}
		}
		return victim
	}
	// RRIP aging, collapsed: repeatedly scanning for rrpvMax and aging
	// everything by one until a line reaches it is the same as aging every
	// line by the distance of the oldest line and evicting the first line
	// that was at the maximum.
	row := c.rrpv[base : base+c.ways]
	victim, max := 0, row[0]
	for w := 1; w < len(row); w++ {
		if row[w] > max {
			victim, max = w, row[w]
		}
	}
	if d := rrpvMax - max; d > 0 {
		for w := range row {
			row[w] += d
		}
	}
	return victim
}

// Access looks up a in the cache. On a miss the line is allocated
// (write-allocate) and the victim, if any, is returned. write marks the
// line dirty.
func (c *Cache) Access(a addr.Addr, write bool) (hit bool, ev Eviction, evicted bool) {
	set, tag := c.index(a)
	base := set * c.ways
	row := c.lines[base : base+c.ways]
	// One pass finds both a hit and the first invalid way. Folding the
	// dirty bit makes the probe a single compare: only a valid line with
	// a matching tag can equal the target (the valid bit differs
	// otherwise).
	target := tag<<lineShiftBits | lineDirty | lineValid
	way := -1
	for w, v := range row {
		if v|lineDirty == target {
			c.stats.Hits++
			c.onHit(set, base, w)
			if write {
				row[w] = v | lineDirty
			}
			return true, Eviction{}, false
		}
		if v&lineValid == 0 && way == -1 {
			way = w
		}
	}
	c.stats.Misses++
	if way == -1 {
		way = c.victim(set, base)
		old := row[way]
		dirty := old&lineDirty != 0
		ev = Eviction{Addr: c.lineAddr(set, old>>lineShiftBits), Dirty: dirty}
		evicted = true
		if dirty {
			c.stats.Writebacks++
		}
	}
	v := tag<<lineShiftBits | lineValid
	if write {
		v |= lineDirty
	}
	row[way] = v
	c.onFill(set, base, way)
	return false, ev, evicted
}

// Contains reports whether the line holding a is resident (no side
// effects).
func (c *Cache) Contains(a addr.Addr) bool {
	set, tag := c.index(a)
	base := set * c.ways
	target := tag<<lineShiftBits | lineValid
	for _, v := range c.lines[base : base+c.ways] {
		if v|lineDirty == target|lineDirty {
			return true
		}
	}
	return false
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

	// Optional stride prefetcher (EnablePrefetch).
	pf      *StridePrefetcher
	pfLevel int
	pfSink  func(addr.Addr)
	pfBuf   []addr.Addr
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
	if h.pf != nil {
		h.prefetch(a)
	}
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
