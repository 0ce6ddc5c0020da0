package alloy

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/addr"
	"repro/internal/config"
	"repro/internal/hmm"
)

func newCache(t *testing.T) *Cache {
	t.Helper()
	c, err := New(config.Default().Scaled(256))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestMissThenHit(t *testing.T) {
	c := newCache(t)
	a := addr.Addr(0x1000)
	now := c.Access(0, a, false)
	cnt := c.Counters()
	if cnt.ServedDRAM != 1 || cnt.ServedHBM != 0 {
		t.Fatalf("cold access counters = %+v", cnt)
	}
	c.Access(now, a, false)
	cnt = c.Counters()
	if cnt.ServedHBM != 1 {
		t.Errorf("second access not served by HBM: %+v", cnt)
	}
}

func TestHitReadsSingleTAD(t *testing.T) {
	c := newCache(t)
	a := addr.Addr(0)
	now := c.Access(0, a, false)
	rdBefore := c.Devices().HBM.Stats().Reads
	c.Access(now, a, false)
	// A read hit costs exactly one HBM burst (the TAD).
	if got := c.Devices().HBM.Stats().Reads - rdBefore; got != 1 {
		t.Errorf("hit issued %d HBM reads, want 1", got)
	}
}

func TestDirectMappedConflict(t *testing.T) {
	c := newCache(t)
	nLines := uint64(len(c.tads))
	a1 := addr.Addr(0)
	a2 := addr.Addr(nLines * 64) // same slot
	now := c.Access(0, a1, false)
	now = c.Access(now, a2, false) // evicts a1
	c.Access(now, a1, false)       // must miss again
	cnt := c.Counters()
	if cnt.ServedHBM != 0 {
		t.Errorf("conflicting lines produced HBM hits: %+v", cnt)
	}
}

func TestDirtyVictimWritesBack(t *testing.T) {
	c := newCache(t)
	nLines := uint64(len(c.tads))
	now := c.Access(0, 0, true) // dirty fill
	wrBefore := c.Devices().DRAM.Stats().WriteBytes
	c.Access(now, addr.Addr(nLines*64), false) // conflict evicts dirty line
	if got := c.Devices().DRAM.Stats().WriteBytes - wrBefore; got < 64 {
		t.Errorf("dirty victim wrote %d bytes to DRAM, want >= 64", got)
	}
	if c.Counters().Evictions != 1 {
		t.Errorf("evictions = %d, want 1", c.Counters().Evictions)
	}
}

func TestWritebackHitAndMiss(t *testing.T) {
	c := newCache(t)
	a := addr.Addr(0)
	now := c.Access(0, a, false)
	hbmW := c.Devices().HBM.Stats().WriteBytes
	c.Writeback(now, a)
	if c.Devices().HBM.Stats().WriteBytes <= hbmW {
		t.Error("writeback of resident line missed HBM")
	}
	dramW := c.Devices().DRAM.Stats().WriteBytes
	c.Writeback(now, addr.Addr(1<<20))
	if c.Devices().DRAM.Stats().WriteBytes <= dramW {
		t.Error("writeback of absent line missed DRAM")
	}
}

func TestNoOverfetchByConstruction(t *testing.T) {
	c := newCache(t)
	var now uint64
	for i := 0; i < 500; i++ {
		now = c.Access(now, addr.Addr(i*64*131), i%2 == 0)
	}
	if r := c.Counters().OverfetchRate(); r != 0 {
		t.Errorf("alloy overfetch = %f, want 0 (64B fills)", r)
	}
}

func TestName(t *testing.T) {
	if newCache(t).Name() != "alloy" {
		t.Error("bad name")
	}
}

// refLine is the reference TAD: the full DRAM line number and two flags,
// 16 bytes per TAD. Cache packs the same state into one word that keeps
// only the quotient tag above the TAD index.
type refLine struct {
	tag   uint64
	valid bool
	dirty bool
}

// refCache is Alloy written plainly over full line tags. It issues the
// same device traffic as Cache and counts the same events.
type refCache struct {
	dev   *hmm.Devices
	cnt   hmm.Counters
	os    *hmm.OSMem
	lines []refLine
}

func newRefCache(t *testing.T, sys config.System) *refCache {
	t.Helper()
	dev, err := hmm.NewDevices(sys)
	if err != nil {
		t.Fatal(err)
	}
	return &refCache{
		dev:   dev,
		os:    hmm.NewOSMem(dev.Geom.DRAMBytes, dev.Geom.PageSize, sys.PageFaultNS, sys.Core.FreqMHz),
		lines: make([]refLine, dev.Geom.HBMBytes/tadBytes),
	}
}

func (r *refCache) slot(a addr.Addr) (lineNo, idx uint64, hbmAddr addr.Addr) {
	lineNo = uint64(r.dev.Geom.DRAMLocal(a)) / 64
	idx = lineNo % uint64(len(r.lines))
	return lineNo, idx, addr.Addr(idx * tadBytes)
}

func (r *refCache) Access(now uint64, a addr.Addr, write bool) uint64 {
	r.cnt.Requests++
	now = r.os.Admit(now, a)
	lineNo, idx, hbmAddr := r.slot(a)
	l := &r.lines[idx]
	tagDone := r.dev.HBMAccess(now, hbmAddr, tadBytes, false)
	if l.valid && l.tag == lineNo {
		r.cnt.ServedHBM++
		if write {
			l.dirty = true
			return r.dev.HBMAccess(tagDone, hbmAddr, 64, true)
		}
		return tagDone
	}
	done := r.dev.DRAM.Access(tagDone, addr.Addr(lineNo*64), 64, write)
	r.cnt.ServedDRAM++
	if l.valid && l.dirty {
		r.dev.DRAM.Access(done, addr.Addr(l.tag*64), 64, true)
		r.cnt.Evictions++
	}
	r.dev.HBMAccess(done, hbmAddr, tadBytes, true)
	r.cnt.BlockFills++
	r.cnt.FetchedBytes += 64
	r.cnt.UsedBytes += 64
	*l = refLine{tag: lineNo, valid: true, dirty: write}
	return done
}

func (r *refCache) Writeback(now uint64, a addr.Addr) {
	r.cnt.Writebacks++
	lineNo, idx, hbmAddr := r.slot(a)
	if l := &r.lines[idx]; l.valid && l.tag == lineNo {
		r.dev.HBMAccess(now, hbmAddr, tadBytes, true)
		l.dirty = true
		return
	}
	r.dev.DRAM.Access(now, addr.Addr(lineNo*64), 64, true)
}

func (r *refCache) Counters() hmm.Counters {
	out := r.cnt
	out.PageFaults = r.os.Faults
	return out
}

// TestCacheMatchesReference drives Cache and refCache with one random
// stream of accesses and writebacks at several scales and fails at the
// first returned cycle, counter or device statistic that differs. Lines
// are drawn mostly from a span a few times the TAD count, so hits,
// conflicts and dirty victims are common, and partly from twice the
// DRAM capacity, so high quotients, folded addresses and page faults
// occur.
func TestCacheMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, scale := range []uint64{128, 512, 2048} {
		sys := config.Default().Scaled(scale)
		c, err := New(sys)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefCache(t, sys)
		tads := uint64(len(c.tads))
		dramLines := c.dev.Geom.DRAMBytes / 64
		var now uint64
		for i := 0; i < 200000; i++ {
			lineNo := rng.Uint64() % (4 * tads)
			if rng.Intn(8) == 0 {
				lineNo = rng.Uint64() % (2 * dramLines)
			}
			a := addr.Addr(lineNo*64 + rng.Uint64()%64)
			var got, want uint64
			if rng.Intn(4) == 0 {
				c.Writeback(now, a)
				ref.Writeback(now, a)
				got, want = now, now
			} else {
				write := rng.Intn(3) == 0
				got, want = c.Access(now, a, write), ref.Access(now, a, write)
				now = got
			}
			if got != want {
				t.Fatalf("scale %d op %d (%#x): cycle %d, reference %d", scale, i, uint64(a), got, want)
			}
			if cg, cw := c.Counters(), ref.Counters(); cg != cw {
				t.Fatalf("scale %d op %d (%#x): counters %+v, reference %+v", scale, i, uint64(a), cg, cw)
			}
		}
		if g, w := c.dev.HBM.Stats(), ref.dev.HBM.Stats(); g != w {
			t.Errorf("scale %d: HBM stats %+v, reference %+v", scale, g, w)
		}
		if g, w := c.dev.DRAM.Stats(), ref.dev.DRAM.Stats(); g != w {
			t.Errorf("scale %d: DRAM stats %+v, reference %+v", scale, g, w)
		}
		if err := c.CheckInvariants(); err != nil {
			t.Errorf("scale %d: %v", scale, err)
		}
	}
}

// TestNewRefusesWideQuotient pins the one geometry Cache cannot store: a
// DRAM so much larger than the HBM that a line's quotient tag overflows
// the TAD word.
func TestNewRefusesWideQuotient(t *testing.T) {
	sys := config.Default().Scaled(2048)
	sys.DRAM.CapacityBytes = 1 << 49
	_, err := New(sys)
	if err == nil {
		t.Fatal("a 512 TiB DRAM over a 512 KiB HBM was accepted")
	}
	for _, want := range []string{"562949953421312 B of DRAM", "524288 B of HBM"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
}
