package cache

import (
	"math/rand"
	"testing"

	"repro/internal/addr"
	"repro/internal/config"
)

// This file is the reference model the cache is held to: each
// replacement policy written plainly behind an interface, with per-set
// slices and no packing, driving a plain tag array (refCache). Cache
// compiles the same algorithms into its access loop and keeps each set's
// replacement state in one packed word; TestCacheMatchesReferencePolicy and
// FuzzCacheMatchesReference check that the two make identical decisions.

// Policy is a per-cache replacement policy. Implementations keep all
// per-set state internally, indexed by (set, way).
type Policy interface {
	// OnHit is called when way in set is hit.
	OnHit(set, way int)
	// OnFill is called when a new line is installed in way of set.
	OnFill(set, way int)
	// Victim selects the way to evict from set. Every way is valid.
	Victim(set int) int
}

// --- LRU ---

type lru struct {
	// stamp[set][way] is a per-set logical clock value; the smallest stamp
	// is the least recently used way.
	stamp [][]uint64
	clock []uint64
}

// NewLRU returns a least-recently-used policy for sets x ways lines.
func NewLRU(sets, ways int) Policy {
	p := &lru{stamp: make([][]uint64, sets), clock: make([]uint64, sets)}
	for i := range p.stamp {
		p.stamp[i] = make([]uint64, ways)
	}
	return p
}

func (p *lru) touch(set, way int) {
	p.clock[set]++
	p.stamp[set][way] = p.clock[set]
}

func (p *lru) OnHit(set, way int)  { p.touch(set, way) }
func (p *lru) OnFill(set, way int) { p.touch(set, way) }

func (p *lru) Victim(set int) int {
	ways := p.stamp[set]
	victim, min := 0, ways[0]
	for w := 1; w < len(ways); w++ {
		if ways[w] < min {
			victim, min = w, ways[w]
		}
	}
	return victim
}

// --- SRRIP ---

type srrip struct {
	rrpv [][]uint8
	// brip: fill distantly most of the time (bimodal), used by DRRIP.
	brip  bool
	fills uint64 // bimodal counter for BRRIP fills
}

// NewSRRIP returns a static re-reference interval prediction policy
// (Jaleel et al., ISCA'10) with 2-bit RRPVs.
func NewSRRIP(sets, ways int) Policy { return newRRIP(sets, ways, false) }

func newRRIP(sets, ways int, brip bool) *srrip {
	p := &srrip{rrpv: make([][]uint8, sets), brip: brip}
	for i := range p.rrpv {
		p.rrpv[i] = make([]uint8, ways)
		for w := range p.rrpv[i] {
			p.rrpv[i][w] = rrpvMax
		}
	}
	return p
}

func (p *srrip) OnHit(set, way int) { p.rrpv[set][way] = 0 }

func (p *srrip) OnFill(set, way int) {
	if p.brip {
		// BRRIP: mostly distant (rrpvMax), occasionally long (rrpvMax-1).
		p.fills++
		if p.fills%32 == 0 {
			p.rrpv[set][way] = rrpvMax - 1
		} else {
			p.rrpv[set][way] = rrpvMax
		}
		return
	}
	p.rrpv[set][way] = rrpvMax - 1 // long re-reference interval
}

func (p *srrip) Victim(set int) int {
	row := p.rrpv[set]
	for {
		for w, v := range row {
			if v == rrpvMax {
				return w
			}
		}
		for w := range row {
			row[w]++
		}
	}
}

// --- DRRIP ---

type drrip struct {
	sr, br *srrip
	// Set dueling: a few leader sets are dedicated to each component
	// policy; PSEL picks the winner for follower sets.
	psel     int
	duelMask int
}

// NewDRRIP returns a dynamic RRIP policy using set dueling between SRRIP
// and BRRIP.
func NewDRRIP(sets, ways int) Policy {
	return &drrip{
		sr:       newRRIP(sets, ways, false),
		br:       newRRIP(sets, ways, true),
		duelMask: 31,
	}
}

// leader returns +1 for SRRIP leader sets, -1 for BRRIP leaders, 0 for
// follower sets.
func (p *drrip) leader(set int) int {
	switch set & p.duelMask {
	case 0:
		return 1
	case 1:
		return -1
	}
	return 0
}

func (p *drrip) OnHit(set, way int) {
	p.sr.OnHit(set, way)
	p.br.OnHit(set, way)
}

func (p *drrip) OnFill(set, way int) {
	// A fill means the previous access to this set missed; leaders vote.
	switch p.leader(set) {
	case 1:
		if p.psel < 512 {
			p.psel++ // SRRIP leader missed: penalize SRRIP
		}
	case -1:
		if p.psel > -512 {
			p.psel--
		}
	}
	if p.useSRRIP(set) {
		p.sr.OnFill(set, way)
		p.br.rrpv[set][way] = p.sr.rrpv[set][way]
	} else {
		p.br.OnFill(set, way)
		p.sr.rrpv[set][way] = p.br.rrpv[set][way]
	}
}

func (p *drrip) useSRRIP(set int) bool {
	switch p.leader(set) {
	case 1:
		return true
	case -1:
		return false
	}
	return p.psel <= 0
}

func (p *drrip) Victim(set int) int {
	if p.useSRRIP(set) {
		v := p.sr.Victim(set)
		copy(p.br.rrpv[set], p.sr.rrpv[set])
		return v
	}
	v := p.br.Victim(set)
	copy(p.sr.rrpv[set], p.br.rrpv[set])
	return v
}

// NewPolicy builds a policy by Table I name.
func NewPolicy(name string, sets, ways int) Policy {
	switch name {
	case "SRRIP":
		return NewSRRIP(sets, ways)
	case "DRRIP":
		return NewDRRIP(sets, ways)
	default:
		return NewLRU(sets, ways)
	}
}

// refCache is a set-associative write-back, write-allocate cache in its
// plainest form: per-set tag, valid and dirty slices, with every
// replacement decision delegated to a reference Policy.
type refCache struct {
	sets, ways int
	lineShift  uint
	tags       [][]uint64 // line numbers
	valid      [][]bool
	dirty      [][]bool
	p          Policy
}

func newRefCache(policy string, sets, ways int, lineBytes uint64) *refCache {
	r := &refCache{sets: sets, ways: ways, p: NewPolicy(policy, sets, ways)}
	for s := lineBytes; s > 1; s >>= 1 {
		r.lineShift++
	}
	for i := 0; i < sets; i++ {
		r.tags = append(r.tags, make([]uint64, ways))
		r.valid = append(r.valid, make([]bool, ways))
		r.dirty = append(r.dirty, make([]bool, ways))
	}
	return r
}

func (r *refCache) Access(a addr.Addr, write bool) (hit bool, ev Eviction, evicted bool) {
	line := uint64(a) >> r.lineShift
	set := int(line % uint64(r.sets))
	for w := 0; w < r.ways; w++ {
		if r.valid[set][w] && r.tags[set][w] == line {
			r.p.OnHit(set, w)
			r.dirty[set][w] = r.dirty[set][w] || write
			return true, Eviction{}, false
		}
	}
	way := -1
	for w := 0; w < r.ways && way < 0; w++ {
		if !r.valid[set][w] {
			way = w
		}
	}
	if way < 0 {
		way = r.p.Victim(set)
		ev = Eviction{Addr: addr.Addr(r.tags[set][way] << r.lineShift), Dirty: r.dirty[set][way]}
		evicted = true
	}
	r.tags[set][way], r.valid[set][way], r.dirty[set][way] = line, true, write
	r.p.OnFill(set, way)
	return false, ev, evicted
}

// diffAgainstReference drives a Cache and a refCache of the same
// geometry with one access stream and fails at the first access where
// the hit flag or the eviction differs. Each op is a line number in the
// low bits and a write flag in bit 0.
func diffAgainstReference(t *testing.T, policy string, sets, ways int, ops []uint32) {
	t.Helper()
	const lineBytes = 64
	c, err := NewCache(config.CacheLevel{Name: "dut", SizeBytes: uint64(sets*ways) * lineBytes,
		Ways: ways, LineBytes: lineBytes, Policy: policy, LatencyCyc: 1})
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefCache(policy, sets, ways, lineBytes)
	for i, op := range ops {
		a, write := addr.Addr(uint64(op>>1)*lineBytes+uint64(op)%lineBytes), op&1 == 1
		hit, ev, evicted := c.Access(a, write)
		rhit, rev, revicted := ref.Access(a, write)
		if hit != rhit || evicted != revicted || ev != rev {
			t.Fatalf("%s %dx%d op %d (%#x write=%v): cache (hit=%v ev=%+v evicted=%v), reference (hit=%v ev=%+v evicted=%v)",
				policy, sets, ways, i, uint64(a), write, hit, ev, evicted, rhit, rev, revicted)
		}
	}
}

var refPolicies = []string{"LRU", "SRRIP", "DRRIP"}

// TestCacheMatchesReferencePolicy runs random and fixed geometries and
// streams through every policy. Line numbers are drawn from a space a
// few times the cache's capacity, so hits, clean and dirty evictions,
// RRIP aging and (with 64+ sets) DRRIP's follower sets all occur. The
// fixed geometries pin the edges of the packed replacement word: one
// way, 15 ways (the highest LRU nibble unused) and 16 (every nibble a
// way), and a 16-way cache with 256 sets, so DRRIP has follower sets.
func TestCacheMatchesReferencePolicy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	run := func(policy string, sets, ways int) {
		span := 1 + rng.Intn(4*sets*ways)
		ops := make([]uint32, 20000)
		for i := range ops {
			ops[i] = uint32(rng.Intn(span))<<1 | uint32(rng.Intn(2))
		}
		diffAgainstReference(t, policy, sets, ways, ops)
	}
	for _, policy := range refPolicies {
		for trial := 0; trial < 40; trial++ {
			run(policy, 1<<rng.Intn(9), 1+rng.Intn(16)) // 1..256 sets, 1..16 ways
		}
	}
	for _, policy := range refPolicies {
		for _, g := range []struct{ sets, ways int }{{16, 1}, {16, 15}, {16, 16}, {256, 16}} {
			run(policy, g.sets, g.ways)
		}
	}
}

// FuzzCacheMatchesReference lets the fuzzer pick the policy, geometry
// and stream: byte 0 the policy, byte 1 log2(sets), byte 2 the ways, and
// every following byte pair one op (line number and write flag).
func FuzzCacheMatchesReference(f *testing.F) {
	f.Add([]byte{0, 2, 2, 0, 0, 8, 0, 16, 0, 0, 0, 24, 1})
	f.Add([]byte{1, 0, 4, 1, 0, 3, 0, 5, 0, 7, 0, 9, 0, 3, 0, 11, 1})
	f.Add([]byte{2, 7, 8, 0, 1, 0, 2, 1, 0, 2, 1, 255, 255, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		policy := refPolicies[int(data[0])%len(refPolicies)]
		sets, ways := 1<<(data[1]%8), 1+int(data[2]%16)
		var ops []uint32
		for i := 3; i+1 < len(data); i += 2 {
			ops = append(ops, uint32(data[i])<<8|uint32(data[i+1]))
		}
		diffAgainstReference(t, policy, sets, ways, ops)
	})
}
