package vm

import (
	"testing"
	"testing/quick"

	"repro/internal/addr"
	"repro/internal/trace"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 1<<20, Sequential, 1); err == nil {
		t.Error("zero page size accepted")
	}
	if _, err := New(1<<20, 1<<10, Sequential, 1); err == nil {
		t.Error("zero frames accepted")
	}
}

func TestSequentialIsIdentityInTouchOrder(t *testing.T) {
	m, err := New(4096, 1<<20, Sequential, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Touch virtual pages 7, 3, 9: they get frames 0, 1, 2.
	for i, vp := range []uint64{7, 3, 9} {
		pa := m.Translate(addr.Addr(vp*4096 + 5))
		if uint64(pa) != uint64(i)*4096+5 {
			t.Errorf("vpage %d -> %#x, want frame %d", vp, uint64(pa), i)
		}
	}
	if m.Stats().Mapped != 3 {
		t.Errorf("mapped = %d, want 3", m.Stats().Mapped)
	}
}

func TestTranslationStable(t *testing.T) {
	for _, pol := range []Policy{Sequential, Fragmented} {
		m, err := New(4096, 1<<20, pol, 42)
		if err != nil {
			t.Fatal(err)
		}
		a := addr.Addr(13*4096 + 100)
		p1 := m.Translate(a)
		p2 := m.Translate(a)
		if p1 != p2 {
			t.Errorf("policy %d: translation unstable: %d vs %d", pol, p1, p2)
		}
	}
}

func TestFragmentedShufflesFrames(t *testing.T) {
	m, err := New(4096, 1<<22, Fragmented, 7)
	if err != nil {
		t.Fatal(err)
	}
	inOrder := 0
	const n = 64
	for vp := uint64(0); vp < n; vp++ {
		pa := m.Translate(addr.Addr(vp * 4096))
		if uint64(pa)/4096 == vp {
			inOrder++
		}
	}
	if inOrder > n/4 {
		t.Errorf("fragmented mapping left %d/%d pages in place", inOrder, n)
	}
}

func TestDistinctPagesGetDistinctFrames(t *testing.T) {
	for _, pol := range []Policy{Sequential, Fragmented} {
		m, err := New(4096, 1<<22, pol, 3)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[uint64]uint64{}
		for vp := uint64(0); vp < 256; vp++ {
			frame := uint64(m.Translate(addr.Addr(vp*4096))) / 4096
			if prev, dup := seen[frame]; dup {
				t.Fatalf("policy %d: frame %d assigned to vpages %d and %d", pol, frame, prev, vp)
			}
			seen[frame] = vp
		}
	}
}

func TestExhaustionAliases(t *testing.T) {
	m, err := New(4096, 4*4096, Sequential, 1)
	if err != nil {
		t.Fatal(err)
	}
	for vp := uint64(0); vp < 10; vp++ {
		m.Translate(addr.Addr(vp * 4096))
	}
	if m.Stats().Faults != 6 {
		t.Errorf("faults = %d, want 6", m.Stats().Faults)
	}
	// Aliased translations stay within physical memory.
	pa := m.Translate(addr.Addr(9 * 4096))
	if uint64(pa) >= 4*4096 {
		t.Errorf("aliased translation %#x beyond physical memory", uint64(pa))
	}
}

func TestOffsetPreservedProperty(t *testing.T) {
	m, err := New(4096, 1<<22, Fragmented, 9)
	if err != nil {
		t.Fatal(err)
	}
	f := func(raw uint32) bool {
		va := addr.Addr(raw)
		pa := m.Translate(va)
		return uint64(pa)%4096 == uint64(va)%4096
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestStreamTranslates(t *testing.T) {
	gen, err := trace.NewSynthetic(trace.Profile{
		Name: "vm", FootprintBytes: 1 << 20, AvgGap: 2, RunMean: 4,
		HotFraction: 0.1, HotProbability: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(4096, 1<<21, Fragmented, 5)
	if err != nil {
		t.Fatal(err)
	}
	s := &Stream{S: &trace.Limit{S: gen, N: 1000}, M: m}
	n := 0
	for {
		a, ok := s.Next()
		if !ok {
			break
		}
		if uint64(a.Addr) >= 1<<21 {
			t.Fatalf("translated address %#x beyond physical memory", uint64(a.Addr))
		}
		n++
	}
	if n != 1000 {
		t.Errorf("stream yielded %d", n)
	}
	if m.Stats().Mapped == 0 {
		t.Error("no frames mapped")
	}
}
