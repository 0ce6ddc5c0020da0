// Package check is a lockstep differential-testing oracle for every HMM
// design in the repo. It drives a design access by access and, after each
// operation, compares the design's externally visible behaviour against a
// flat reference model maintained from the design's own hmm.Inspector
// surface:
//
//   - counter accounting: every Access serves exactly one request from
//     exactly one tier; every Writeback accounts exactly one writeback;
//     all counters are monotone (catching underflow on retirement paths).
//   - serve-tier agreement: the tier LocateLine predicts before an access
//     must match the tier the served counter says actually serviced it.
//   - duplicate residency: no physical frame (HBM or DRAM) is claimed by
//     two distinct pages at the same observation instant.
//   - movement accounting: a page's observed location may only change
//     between observations if at least one movement counter (fills,
//     migrations, evictions, mode switches, swaps, retirements) advanced
//     in the interval — relocations cannot happen "for free".
//   - structural audit: every K operations the design's own
//     CheckInvariants runs and the full residency map is rebuilt from
//     fresh inspections, also bounding distinct HBM frames by capacity
//     (page homes by the geometry and cache copies by the cache region
//     when the design partitions HBM; see cacheRegion).
//
// Violations carry the index of the offending operation so the shrinker
// (shrink.go) can minimize a failing workload to a short repro.
package check

import (
	"fmt"
	"reflect"
	"sort"

	"repro/internal/addr"
	"repro/internal/hmm"
)

// Op is one externally observable operation against a MemSystem: a demand
// access (read or write) or an LLC writeback.
type Op struct {
	Addr  addr.Addr
	Write bool
	WB    bool // writeback; Write is ignored when set
}

// Violation reports a divergence between a design and the reference
// model, anchored to the operation that exposed it.
type Violation struct {
	OpIndex int
	Kind    string
	Msg     string
}

func (v *Violation) Error() string {
	return fmt.Sprintf("op %d [%s]: %s", v.OpIndex, v.Kind, v.Msg)
}

// Config tunes the checker. The zero value is usable.
type Config struct {
	// Every is the full-audit period in operations (CheckInvariants +
	// residency-map rebuild). <= 0 means 64.
	Every int
}

type frameKey struct {
	tier  hmm.Tier
	frame uint64
}

// pageState is the reference model's record of one page: where it was
// last seen, a representative address to re-inspect it by, and the
// movement-counter sum at that observation.
type pageState struct {
	addr    addr.Addr
	info    hmm.PageInfo
	moveSum uint64
}

// Checker runs one design in lockstep with the reference model. It is
// not safe for concurrent use; run one Checker per goroutine.
type Checker struct {
	mem   hmm.MemSystem
	insp  hmm.Inspector // nil when the design exposes no Inspector
	cfg   Config
	now   uint64
	idx   int
	prev  hmm.Counters
	pages map[uint64]*pageState
	// claims maps a physical frame to the page last observed holding it.
	// Entries go stale as un-reobserved pages move; conflicts re-inspect
	// the recorded holder before being ruled violations.
	claims map[frameKey]uint64
	// maxHBM bounds distinct HBM frame claims (capacity / granularity);
	// with a cache region it bounds page homes alone, and maxCache bounds
	// the cache copies.
	maxHBM   uint64
	maxCache uint64
}

// cacheRegion is implemented by designs whose HBM cache copies live in a
// statically partitioned region beside the frames their geometry maps
// (Hybrid2's block cache beside its POM region). InspectCacheFrames
// returns the region's frame count at the InspectGranularity. For every
// other design, page homes and cache copies share the geometry's frames.
type cacheRegion interface {
	InspectCacheFrames() uint64
}

// NewChecker wraps mem. If mem implements hmm.Inspector the full oracle
// runs; otherwise only the counter-accounting checks apply.
func NewChecker(mem hmm.MemSystem, cfg Config) *Checker {
	if cfg.Every <= 0 {
		cfg.Every = 64
	}
	c := &Checker{
		mem:    mem,
		cfg:    cfg,
		prev:   mem.Counters(),
		pages:  make(map[uint64]*pageState),
		claims: make(map[frameKey]uint64),
	}
	if insp, ok := mem.(hmm.Inspector); ok {
		c.insp = insp
		if g := insp.InspectGranularity(); g > 0 {
			c.maxHBM = mem.Devices().Geom.HBMBytes / g
		}
		if cr, ok := insp.(cacheRegion); ok {
			c.maxCache = cr.InspectCacheFrames()
		}
	}
	return c
}

// movementSum folds every counter whose increment legitimately relocates
// data between frames. A page observed at a different location while this
// sum stood still moved without accounting for it.
func movementSum(c hmm.Counters) uint64 {
	return c.BlockFills + c.PageMigrations + c.Evictions + c.ModeSwitches +
		c.PageSwaps + c.FramesRetired + c.RetireMigrations + c.RetireDrops
}

// rasDelta is the number of RAS-driven events between two counter
// snapshots. Fault handling may relocate or drop pages before the serve
// decision, so serve-tier prediction is skipped on ops where it is
// nonzero.
func rasDelta(pre, post hmm.Counters) uint64 {
	return (post.FramesRetired - pre.FramesRetired) +
		(post.RetireMigrations - pre.RetireMigrations) +
		(post.RetireDrops - pre.RetireDrops) +
		(post.RetireDeferred - pre.RetireDeferred)
}

// keysOf lists the physical frames info claims exclusively. An aliased
// DRAM home is shared with its victim by design, so it claims nothing;
// HBM frames are always exclusive.
func keysOf(info hmm.PageInfo) []frameKey {
	if !info.Allocated {
		return nil
	}
	ks := make([]frameKey, 0, 2)
	switch info.Home {
	case hmm.TierHBM:
		ks = append(ks, frameKey{hmm.TierHBM, info.HomeFrame})
	case hmm.TierDRAM:
		if !info.Aliased {
			ks = append(ks, frameKey{hmm.TierDRAM, info.HomeFrame})
		}
	}
	if info.HasCache {
		ks = append(ks, frameKey{hmm.TierHBM, info.CacheFrame})
	}
	return ks
}

// locationChanged compares only the fields that define placement, so
// records stay equal across observations that merely refreshed metadata.
func locationChanged(a, b hmm.PageInfo) bool {
	return a.Allocated != b.Allocated || a.Home != b.Home ||
		a.HomeFrame != b.HomeFrame || a.HasCache != b.HasCache ||
		a.CacheFrame != b.CacheFrame
}

func (c *Checker) violation(kind, format string, args ...any) *Violation {
	return &Violation{OpIndex: c.idx, Kind: kind, Msg: fmt.Sprintf(format, args...)}
}

// Step applies one operation and runs every per-op check. It returns the
// first violation found, or nil.
func (c *Checker) Step(op Op) *Violation {
	pre := c.prev
	predicted := hmm.TierNone
	if c.insp != nil && !op.WB {
		predicted = c.insp.LocateLine(op.Addr)
	}
	if op.WB {
		c.mem.Writeback(c.now, op.Addr)
		c.now++
	} else {
		done := c.mem.Access(c.now, op.Addr, op.Write)
		if done > c.now {
			c.now = done
		}
		c.now++
	}
	post := c.mem.Counters()
	c.prev = post

	if v := c.checkCounterDeltas(op, pre, post, predicted); v != nil {
		return v
	}
	if c.insp != nil {
		if v := c.track(op.Addr, movementSum(post)); v != nil {
			return v
		}
		if (c.idx+1)%c.cfg.Every == 0 {
			if v := c.fullAudit(movementSum(post)); v != nil {
				return v
			}
		}
	}
	c.idx++
	return nil
}

// Finish runs a final full audit after the last operation.
func (c *Checker) Finish() *Violation {
	if c.insp == nil {
		return nil
	}
	if c.idx > 0 {
		c.idx-- // anchor the audit to the last applied op
		v := c.fullAudit(movementSum(c.prev))
		c.idx++
		return v
	}
	return c.fullAudit(movementSum(c.prev))
}

// RunOps replays ops from scratch against mem, returning the first
// violation (including the final audit) or nil.
func RunOps(mem hmm.MemSystem, ops []Op, cfg Config) *Violation {
	c := NewChecker(mem, cfg)
	for _, op := range ops {
		if v := c.Step(op); v != nil {
			return v
		}
	}
	return c.Finish()
}

// checkCounterDeltas enforces per-operation accounting: monotone
// counters, one request xor one writeback, exactly one serve per access,
// and serve-tier agreement with the pre-access LocateLine prediction.
func (c *Checker) checkCounterDeltas(op Op, pre, post hmm.Counters, predicted hmm.Tier) *Violation {
	preV := reflect.ValueOf(pre)
	postV := reflect.ValueOf(post)
	t := preV.Type()
	for i := 0; i < t.NumField(); i++ {
		if postV.Field(i).Uint() < preV.Field(i).Uint() {
			return c.violation("counter-underflow", "%s went backwards: %d -> %d",
				t.Field(i).Name, preV.Field(i).Uint(), postV.Field(i).Uint())
		}
	}
	dReq := post.Requests - pre.Requests
	dWB := post.Writebacks - pre.Writebacks
	dServe := (post.ServedHBM + post.ServedDRAM) - (pre.ServedHBM + pre.ServedDRAM)
	if op.WB {
		if dWB != 1 || dReq != 0 {
			return c.violation("accounting", "writeback op: Writebacks +%d, Requests +%d (want +1, +0)", dWB, dReq)
		}
		if dServe != 0 {
			return c.violation("accounting", "writeback op served %d requests", dServe)
		}
		return nil
	}
	if dReq != 1 || dWB != 0 {
		return c.violation("accounting", "access op: Requests +%d, Writebacks +%d (want +1, +0)", dReq, dWB)
	}
	if dServe != 1 {
		return c.violation("accounting", "access op served from %d tiers (ServedHBM +%d, ServedDRAM +%d)",
			dServe, post.ServedHBM-pre.ServedHBM, post.ServedDRAM-pre.ServedDRAM)
	}
	// Fault handling (frame retirement, drops) can relocate the page
	// between prediction and serve; only hold the design to its
	// prediction on fault-quiet operations.
	if predicted != hmm.TierNone && rasDelta(pre, post) == 0 {
		served := hmm.TierDRAM
		if post.ServedHBM == pre.ServedHBM+1 {
			served = hmm.TierHBM
		}
		if served != predicted {
			return c.violation("serve-tier", "addr %#x: LocateLine predicted %s but access was served from %s",
				uint64(op.Addr), predicted, served)
		}
	}
	return nil
}

// track refreshes the reference record for the page behind a and settles
// its frame claims. A claim conflict re-inspects the recorded holder: a
// stale record is refreshed and the claim transfers; a fresh record still
// claiming the frame is a duplicate-residency violation. Cascades are
// bounded; anything deeper falls back to a full audit, which is exact.
func (c *Checker) track(a addr.Addr, ms uint64) *Violation {
	p := c.insp.InspectAddr(a).Page
	if ps, ok := c.pages[p]; ok {
		ps.addr = a
	} else {
		c.pages[p] = &pageState{addr: a, moveSum: ms}
	}
	pending := []uint64{p}
	for iter := 0; len(pending) > 0; iter++ {
		if iter > 16 {
			return c.fullAudit(ms)
		}
		q := pending[0]
		pending = pending[1:]
		keys, v := c.refreshRecord(q, ms)
		if v != nil {
			return v
		}
		for _, k := range keys {
			holder, ok := c.claims[k]
			if !ok || holder == q {
				c.claims[k] = q
				continue
			}
			hkeys, hv := c.refreshRecord(holder, ms)
			if hv != nil {
				return hv
			}
			still := false
			for _, hk := range hkeys {
				if hk == k {
					still = true
					break
				}
			}
			if still {
				return c.violation("dup-residency", "pages %d and %d both claim %s frame %d",
					q, holder, k.tier, k.frame)
			}
			c.claims[k] = q
			pending = append(pending, holder)
		}
	}
	return nil
}

// refreshRecord re-inspects page p via its stored representative address,
// runs the movement-accounting check against the record, releases claims
// the page no longer holds, and returns its fresh keys (not yet claimed).
func (c *Checker) refreshRecord(p uint64, ms uint64) ([]frameKey, *Violation) {
	ps := c.pages[p]
	info := c.insp.InspectAddr(ps.addr)
	if info.Page != p {
		return nil, c.violation("identity", "page %d re-inspected via addr %#x resolved to page %d",
			p, uint64(ps.addr), info.Page)
	}
	if locationChanged(ps.info, info) {
		if ps.info.Allocated && ms == ps.moveSum {
			return nil, c.violation("movement", "page %d moved (%s) with no movement counter advancing",
				p, describeMove(ps.info, info))
		}
		for _, k := range keysOf(ps.info) {
			if c.claims[k] == p {
				delete(c.claims, k)
			}
		}
	}
	ps.info = info
	ps.moveSum = ms
	return keysOf(info), nil
}

func describeMove(old, new hmm.PageInfo) string {
	return fmt.Sprintf("%s/frame %d cache=%v/%d -> %s/frame %d cache=%v/%d",
		old.Home, old.HomeFrame, old.HasCache, old.CacheFrame,
		new.Home, new.HomeFrame, new.HasCache, new.CacheFrame)
}

// fullAudit re-inspects every tracked page, rebuilds the residency map
// from scratch (so stale claims cannot mask or fake duplicates), bounds
// HBM residency by capacity, and runs the design's own CheckInvariants.
func (c *Checker) fullAudit(ms uint64) *Violation {
	if err := c.insp.CheckInvariants(); err != nil {
		return c.violation("invariant", "%v", err)
	}
	ids := make([]uint64, 0, len(c.pages))
	for p := range c.pages {
		ids = append(ids, p)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	fresh := make(map[frameKey]uint64, len(c.claims))
	var homes, cached uint64 // HBM frames claimed by page homes and by cache copies
	for _, p := range ids {
		ps := c.pages[p]
		info := c.insp.InspectAddr(ps.addr)
		if info.Page != p {
			return c.violation("identity", "page %d re-inspected via addr %#x resolved to page %d",
				p, uint64(ps.addr), info.Page)
		}
		if locationChanged(ps.info, info) && ps.info.Allocated && ms == ps.moveSum {
			return c.violation("movement", "page %d moved (%s) with no movement counter advancing",
				p, describeMove(ps.info, info))
		}
		ps.info = info
		ps.moveSum = ms
		for _, k := range keysOf(info) {
			if other, dup := fresh[k]; dup {
				return c.violation("dup-residency", "pages %d and %d both claim %s frame %d",
					other, p, k.tier, k.frame)
			}
			fresh[k] = p
		}
		if info.Allocated && info.Home == hmm.TierHBM {
			homes++
		}
		if info.Allocated && info.HasCache {
			cached++
		}
	}
	c.claims = fresh
	switch {
	case c.maxCache > 0 && c.maxHBM > 0 && homes > c.maxHBM:
		return c.violation("capacity", "%d HBM home frames claimed but the geometry holds %d",
			homes, c.maxHBM)
	case c.maxCache > 0 && cached > c.maxCache:
		return c.violation("capacity", "%d HBM cache frames claimed but the cache region holds %d",
			cached, c.maxCache)
	case c.maxCache == 0 && c.maxHBM > 0 && homes+cached > c.maxHBM:
		return c.violation("capacity", "%d distinct HBM frames claimed but capacity holds %d",
			homes+cached, c.maxHBM)
	}
	return nil
}
