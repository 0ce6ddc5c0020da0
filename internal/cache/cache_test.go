package cache

import (
	"math/rand"
	"testing"

	"repro/internal/addr"
	"repro/internal/config"
)

func smallCache(t *testing.T, policy string) *Cache {
	t.Helper()
	c, err := NewCache(config.CacheLevel{
		Name: "test", SizeBytes: 8 * 64, Ways: 2, LineBytes: 64,
		Policy: policy, LatencyCyc: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// contains reports whether the line holding a is resident in c, without
// touching replacement state.
func contains(c *Cache, a addr.Addr) bool {
	set, tag := c.index(a)
	for _, v := range c.lines[set*c.ways : (set+1)*c.ways] {
		if v&^lineDirty == tag<<lineTagShift|lineValid {
			return true
		}
	}
	return false
}

func TestNewCacheRejectsBadGeometry(t *testing.T) {
	cases := []config.CacheLevel{
		{Name: "badline", SizeBytes: 1024, Ways: 2, LineBytes: 48},
		{Name: "badways", SizeBytes: 192, Ways: 4, LineBytes: 64},
		{Name: "badsets", SizeBytes: 3 * 64 * 2, Ways: 2, LineBytes: 64},
		{Name: "noways", SizeBytes: 1024, Ways: 0, LineBytes: 64},
	}
	for _, cfg := range cases {
		if _, err := NewCache(cfg); err == nil {
			t.Errorf("NewCache(%q) accepted invalid geometry", cfg.Name)
		}
	}
}

// TestNewCacheRefusesMoreThan16Ways: a set's LRU order is 16 nibbles of
// one word, so 16 ways is the widest cache; config.Validate refuses the
// same geometry with the same message.
func TestNewCacheRefusesMoreThan16Ways(t *testing.T) {
	if _, err := NewCache(config.CacheLevel{Name: "wide", SizeBytes: 16 * 64 * 4, Ways: 16, LineBytes: 64, Policy: "LRU"}); err != nil {
		t.Fatalf("16 ways refused: %v", err)
	}
	cfg := config.CacheLevel{Name: "wide", SizeBytes: 17 * 64 * 4, Ways: 17, LineBytes: 64, Policy: "LRU"}
	_, err := NewCache(cfg)
	if err == nil {
		t.Fatal("NewCache accepted 17 ways")
	}
	if want := `cache "wide": 17 ways, want 1 to 16`; err.Error() != want {
		t.Errorf("NewCache error %q, want %q", err, want)
	}
}

func TestHitAfterFill(t *testing.T) {
	c := smallCache(t, "LRU")
	a := addr.Addr(0x1000)
	if hit, _, _ := c.Access(a, false); hit {
		t.Error("cold access hit")
	}
	if hit, _, _ := c.Access(a, false); !hit {
		t.Error("second access missed")
	}
	if hit, _, _ := c.Access(a+63, false); !hit {
		t.Error("same-line access missed")
	}
	if hit, _, _ := c.Access(a+64, false); hit {
		t.Error("next-line access hit")
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 2 {
		t.Errorf("stats = %+v, want 2 hits 2 misses", st)
	}
}

func TestLRUEvictsOldest(t *testing.T) {
	c := smallCache(t, "LRU") // 4 sets x 2 ways
	// Three lines mapping to set 0: line numbers 0, 4, 8 (4 sets).
	a0, a4, a8 := addr.Addr(0), addr.Addr(4*64), addr.Addr(8*64)
	c.Access(a0, false)
	c.Access(a4, false)
	c.Access(a0, false) // a0 now MRU
	_, ev, evicted := c.Access(a8, false)
	if !evicted {
		t.Fatal("full set did not evict")
	}
	if ev.Addr != a4 {
		t.Errorf("evicted %#x, want %#x (LRU)", uint64(ev.Addr), uint64(a4))
	}
	if !contains(c, a0) || contains(c, a4) || !contains(c, a8) {
		t.Error("residency after eviction wrong")
	}
}

func TestDirtyEvictionReported(t *testing.T) {
	c := smallCache(t, "LRU")
	a0, a4, a8 := addr.Addr(0), addr.Addr(4*64), addr.Addr(8*64)
	c.Access(a0, true) // dirty
	c.Access(a4, false)
	c.Access(a8, false) // evicts a0 (LRU), dirty
	st := c.Stats()
	if st.Writebacks != 1 {
		t.Errorf("writebacks = %d, want 1", st.Writebacks)
	}
}

func TestSRRIPHitPromotion(t *testing.T) {
	c := smallCache(t, "SRRIP")
	a0, a4, a8 := addr.Addr(0), addr.Addr(4*64), addr.Addr(8*64)
	c.Access(a0, false)
	c.Access(a4, false)
	c.Access(a0, false) // promote a0 to RRPV 0
	_, ev, evicted := c.Access(a8, false)
	if !evicted {
		t.Fatal("no eviction from full set")
	}
	if ev.Addr != a4 {
		t.Errorf("SRRIP evicted %#x, want non-promoted %#x", uint64(ev.Addr), uint64(a4))
	}
}

func TestDRRIPBehavesAsCache(t *testing.T) {
	c, err := NewCache(config.CacheLevel{
		Name: "drrip", SizeBytes: 64 * addr.KiB, Ways: 8, LineBytes: 64,
		Policy: "DRRIP", LatencyCyc: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// A working set that fits must eventually hit ~100%.
	for pass := 0; pass < 4; pass++ {
		for i := 0; i < 256; i++ {
			c.Access(addr.Addr(i*64), false)
		}
	}
	st := c.Stats()
	if st.Hits < 3*256 {
		t.Errorf("DRRIP resident working set hits = %d, want >= %d", st.Hits, 3*256)
	}
}

func TestPolicyVictimAlwaysInRange(t *testing.T) {
	for _, name := range []string{"LRU", "SRRIP", "DRRIP"} {
		p := NewPolicy(name, 16, 4)
		for s := 0; s < 16; s++ {
			for w := 0; w < 4; w++ {
				p.OnFill(s, w)
			}
			for i := 0; i < 8; i++ {
				v := p.Victim(s)
				if v < 0 || v >= 4 {
					t.Fatalf("%s victim %d out of range", name, v)
				}
				p.OnFill(s, v)
				p.OnHit(s, (v+1)%4)
			}
		}
	}
}

func newHier(t *testing.T) *Hierarchy {
	t.Helper()
	h, err := NewHierarchy(config.Default().Caches)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestHierarchyMissThenHit(t *testing.T) {
	h := newHier(t)
	a := addr.Addr(0x12340)
	r := h.Access(a, false)
	if r.HitLevel != -1 {
		t.Fatalf("cold access hit level %d", r.HitLevel)
	}
	r = h.Access(a, false)
	if r.HitLevel != 0 {
		t.Errorf("second access hit level %d, want 0 (L1)", r.HitLevel)
	}
	if r.HitLatency != 4 {
		t.Errorf("L1 hit latency %d, want 4", r.HitLatency)
	}
}

func TestHierarchyL2Hit(t *testing.T) {
	h := newHier(t)
	base := addr.Addr(0)
	// Fill L1 (64KB, 1024 lines) far beyond capacity with a 128KB sweep;
	// early lines fall out of L1 but stay in L2 (256KB).
	for i := 0; i < 2048; i++ {
		h.Access(base+addr.Addr(i*64), false)
	}
	r := h.Access(base, false)
	if r.HitLevel != 1 && r.HitLevel != 2 {
		t.Errorf("swept-out line hit level %d, want L2 or L3", r.HitLevel)
	}
}

func TestHierarchyWritebackEscapes(t *testing.T) {
	h := newHier(t)
	// Dirty a large region far beyond LLC capacity (8MB): 16MB of lines.
	lines := uint64(16*addr.MiB) / 64
	wbs := 0
	for i := uint64(0); i < lines; i++ {
		r := h.Access(addr.Addr(i*64), true)
		wbs += len(r.Writebacks)
	}
	if wbs == 0 {
		t.Error("no writebacks escaped the LLC after dirtying 2x LLC capacity")
	}
}

func TestHierarchyMissLatencyBase(t *testing.T) {
	h := newHier(t)
	if got, want := h.MissLatencyBase(), uint64(4+12+38); got != want {
		t.Errorf("MissLatencyBase = %d, want %d", got, want)
	}
}

func TestHierarchyLLCFilter(t *testing.T) {
	// A tiny working set must produce no LLC misses after warmup.
	h := newHier(t)
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < 64; i++ {
			h.Access(addr.Addr(i*64), false)
		}
	}
	miss0 := h.LLC().Stats().Misses
	for i := 0; i < 64; i++ {
		h.Access(addr.Addr(i*64), false)
	}
	if got := h.LLC().Stats().Misses; got != miss0 {
		t.Errorf("LLC misses grew from %d to %d on resident set", miss0, got)
	}
}

// BenchmarkHierarchyAccess times the Table I hierarchy at the harness's
// default scale of 128 (L1D 1 KiB, L2 2 KiB, L3 64 KiB, the geometry
// harness.System builds) over a fixed, seeded stream of sequential runs:
// each run starts at a random line of a 256 MiB footprint and walks 1 to
// 16 lines, a third of them writes. It reports ns per access.
func BenchmarkHierarchyAccess(b *testing.B) {
	h, err := NewHierarchy(config.Default().Scaled(128).Caches)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	type op struct {
		a     addr.Addr
		write bool
	}
	ops := make([]op, 0, 1<<16)
	for len(ops) < cap(ops) {
		line := rng.Int63n(256 * addr.MiB / 64)
		for n := 1 + rng.Intn(16); n > 0 && len(ops) < cap(ops); n-- {
			ops = append(ops, op{addr.Addr(line * 64), rng.Intn(3) == 0})
			line++
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, o := range ops {
			h.Access(o.a, o.write)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ops)), "ns/access")
}
