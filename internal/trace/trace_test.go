package trace

import (
	"math"
	"testing"

	"repro/internal/addr"
)

func TestProfileValidate(t *testing.T) {
	good := Profile{Name: "ok", FootprintBytes: 1 * addr.MiB, AvgGap: 4, RunMean: 8,
		HotFraction: 0.1, HotProbability: 0.5, WriteFraction: 0.3}
	if err := good.Validate(); err != nil {
		t.Fatalf("good profile rejected: %v", err)
	}
	bad := []Profile{
		{Name: "tiny", FootprintBytes: 64, AvgGap: 4, RunMean: 8, HotFraction: 0.1},
		{Name: "gap", FootprintBytes: 1 * addr.MiB, AvgGap: 0.5, RunMean: 8, HotFraction: 0.1},
		{Name: "run", FootprintBytes: 1 * addr.MiB, AvgGap: 4, RunMean: 0, HotFraction: 0.1},
		{Name: "hotf", FootprintBytes: 1 * addr.MiB, AvgGap: 4, RunMean: 8, HotFraction: 0},
		{Name: "hotp", FootprintBytes: 1 * addr.MiB, AvgGap: 4, RunMean: 8, HotFraction: 0.1, HotProbability: 1.5},
		{Name: "wf", FootprintBytes: 1 * addr.MiB, AvgGap: 4, RunMean: 8, HotFraction: 0.1, WriteFraction: -0.1},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("profile %q accepted", p.Name)
		}
	}
}

func TestSyntheticDeterministic(t *testing.T) {
	p := Profile{Name: "det", FootprintBytes: 4 * addr.MiB, AvgGap: 4, RunMean: 8,
		HotFraction: 0.1, HotProbability: 0.6, WriteFraction: 0.3, Seed: 7}
	g1, err := NewSynthetic(p)
	if err != nil {
		t.Fatal(err)
	}
	g2, _ := NewSynthetic(p)
	for i := 0; i < 10000; i++ {
		a1, _ := g1.Next()
		a2, _ := g2.Next()
		if a1 != a2 {
			t.Fatalf("divergence at access %d: %+v vs %+v", i, a1, a2)
		}
	}
}

func TestSyntheticStaysInFootprint(t *testing.T) {
	p := Profile{Name: "bound", FootprintBytes: 1 * addr.MiB, AvgGap: 2, RunMean: 64,
		HotFraction: 0.2, HotProbability: 0.5, WriteFraction: 0.3}
	g, err := NewSynthetic(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200000; i++ {
		a, ok := g.Next()
		if !ok {
			t.Fatal("endless stream ended")
		}
		if uint64(a.Addr) >= p.FootprintBytes {
			t.Fatalf("address %#x outside footprint %#x", uint64(a.Addr), p.FootprintBytes)
		}
	}
}

func TestSpatialKnobControlsSeqFraction(t *testing.T) {
	mk := func(run float64) Characteristics {
		p := Profile{Name: "spatial", FootprintBytes: 16 * addr.MiB, AvgGap: 2, RunMean: run,
			HotFraction: 0.2, HotProbability: 0.3, WriteFraction: 0.3}
		g, err := NewSynthetic(p)
		if err != nil {
			t.Fatal(err)
		}
		return Characterize(g, 100000)
	}
	long := mk(64)
	short := mk(1.2)
	if long.SeqFraction <= short.SeqFraction+0.3 {
		t.Errorf("RunMean knob weak: seq fraction %f (long) vs %f (short)",
			long.SeqFraction, short.SeqFraction)
	}
}

func TestTemporalKnobControlsReuse(t *testing.T) {
	mk := func(hotProb float64) Characteristics {
		p := Profile{Name: "temporal", FootprintBytes: 64 * addr.MiB, AvgGap: 2, RunMean: 4,
			HotFraction: 0.01, HotProbability: hotProb, WriteFraction: 0.3}
		g, err := NewSynthetic(p)
		if err != nil {
			t.Fatal(err)
		}
		return Characterize(g, 100000)
	}
	hot := mk(0.95)
	cold := mk(0.05)
	if hot.ReuseFraction <= cold.ReuseFraction+0.2 {
		t.Errorf("HotProbability knob weak: reuse %f (hot) vs %f (cold)",
			hot.ReuseFraction, cold.ReuseFraction)
	}
}

func TestWriteFraction(t *testing.T) {
	p := Profile{Name: "wf", FootprintBytes: 8 * addr.MiB, AvgGap: 2, RunMean: 4,
		HotFraction: 0.1, HotProbability: 0.5, WriteFraction: 0.4}
	g, err := NewSynthetic(p)
	if err != nil {
		t.Fatal(err)
	}
	c := Characterize(g, 100000)
	got := float64(c.Writes) / float64(c.Accesses)
	if got < 0.3 || got > 0.5 {
		t.Errorf("write fraction = %f, want ~0.4", got)
	}
}

func TestTableIIComplete(t *testing.T) {
	bs := TableII()
	if len(bs) != 14 {
		t.Fatalf("TableII has %d benchmarks, want 14", len(bs))
	}
	groups := map[MPKIClass]int{}
	for _, b := range bs {
		if err := b.Profile.Validate(); err != nil {
			t.Errorf("%s: %v", b.Profile.Name, err)
		}
		groups[b.Class]++
		want := b.PaperGB * float64(addr.GiB)
		got := float64(b.Profile.FootprintBytes)
		if got < want*0.99 || got > want*1.01 {
			t.Errorf("%s footprint %f GB, Table II says %f", b.Profile.Name, got/float64(addr.GiB), b.PaperGB)
		}
	}
	if groups[HighMPKI] != 4 || groups[MediumMPKI] != 4 || groups[LowMPKI] != 6 {
		t.Errorf("group sizes = %v, want 4/4/6", groups)
	}
}

func TestPaperLocalityClasses(t *testing.T) {
	// Figure 1 rests on these three classes; make sure our stand-ins
	// measurably exhibit them.
	check := func(name string, wantSeqHigh, wantReuseHigh bool) {
		b, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		g, err := NewSynthetic(b.Scale(64).Profile)
		if err != nil {
			t.Fatal(err)
		}
		// Skip the initialization sweep; the classes describe steady state.
		for i := 0; i < 1<<16; i++ {
			g.Next()
		}
		c := Characterize(g, 200000)
		seqHigh := c.SeqFraction > 0.5
		reuseHigh := c.ReuseFraction > 0.5
		if seqHigh != wantSeqHigh {
			t.Errorf("%s: seq fraction %f, want high=%v", name, c.SeqFraction, wantSeqHigh)
		}
		if reuseHigh != wantReuseHigh {
			t.Errorf("%s: reuse fraction %f, want high=%v", name, c.ReuseFraction, wantReuseHigh)
		}
	}
	check("mcf", true, true)  // strong spatial, strong temporal
	check("wrf", false, true) // weak spatial, strong temporal
	check("xz", true, false)  // strong spatial, weak temporal
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("nonesuch"); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestScaleFloorsFootprint(t *testing.T) {
	b, _ := ByName("leela") // 0.1 GB
	s := b.Scale(1 << 20)
	if s.Profile.FootprintBytes < 64*addr.KiB {
		t.Errorf("scaled footprint %d below floor", s.Profile.FootprintBytes)
	}
}

func TestLimitStream(t *testing.T) {
	g, _ := NewSynthetic(Profile{Name: "lim", FootprintBytes: 1 * addr.MiB, AvgGap: 2,
		RunMean: 4, HotFraction: 0.1, HotProbability: 0.5})
	l := &Limit{S: g, N: 100}
	n := 0
	for {
		_, ok := l.Next()
		if !ok {
			break
		}
		n++
	}
	if n != 100 {
		t.Errorf("limit yielded %d accesses, want 100", n)
	}
}

// TestRNGGeometricDistribution checks the inverse-CDF sampler against
// the geometric distribution it stands for, across the range of means
// the Table II profiles use (run lengths near 1, gaps up to 220): with
// p = 1/mean, P(n=1) = p, E[n] = 1/p and Var[n] = (1-p)/p^2, within five
// standard errors over 1M samples. Every sample lies in [1, 16*mean]
// and advances the RNG exactly once.
func TestRNGGeometricDistribution(t *testing.T) {
	const n = 1 << 20
	for _, mean := range []float64{1.3, 6, 40, 220} {
		g := makeGeom(mean)
		r := newRNG(uint64(mean * 1000))
		var ones, max uint64
		var sum, sumSq float64
		for i := 0; i < n; i++ {
			before := *r
			k := r.geometricP(g)
			before.next()
			if r.s != before.s {
				t.Fatalf("mean %v: sample %d did not advance the RNG exactly once", mean, i)
			}
			if k == 1 {
				ones++
			}
			if k > max {
				max = k
			}
			if k == 0 {
				t.Fatalf("mean %v: sample 0", mean)
			}
			sum += float64(k)
			sumSq += float64(k) * float64(k)
		}
		p := 1 / mean
		wantVar := (1 - p) / (p * p)
		gotP1 := float64(ones) / n
		gotMean := sum / n
		gotVar := sumSq/n - gotMean*gotMean
		if d := math.Abs(gotP1 - p); d > 5*math.Sqrt(p*(1-p)/n) {
			t.Errorf("mean %v: P(n=1) = %.5f, want %.5f", mean, gotP1, p)
		}
		if d := math.Abs(gotMean - mean); d > 5*math.Sqrt(wantVar/n) {
			t.Errorf("mean %v: sample mean = %.4f", mean, gotMean)
		}
		// The sample variance's standard error is about
		// Var*sqrt((kurtosis-1)/n), and a geometric's kurtosis is
		// 9 + p^2/(1-p).
		if d := math.Abs(gotVar/wantVar - 1); d > 5*math.Sqrt((8+p*p/(1-p))/n) {
			t.Errorf("mean %v: sample variance = %.4f, want %.4f", mean, gotVar, wantVar)
		}
		if max > uint64(16*mean) {
			t.Errorf("mean %v: sample %d over the cap %d", mean, max, uint64(16*mean))
		}
	}
	// A mean of at most 1 is the constant 1 and draws nothing.
	r := newRNG(1)
	before := *r
	if k := r.geometricP(makeGeom(1)); k != 1 || *r != before {
		t.Errorf("geometric(1) = %d, state moved %v", k, *r != before)
	}
}

func TestRNGUniform(t *testing.T) {
	r := newRNG(1)
	buckets := make([]int, 10)
	const n = 100000
	for i := 0; i < n; i++ {
		buckets[r.uint64n(10)]++
	}
	for i, b := range buckets {
		if b < n/10-n/50 || b > n/10+n/50 {
			t.Errorf("bucket %d = %d, want ~%d", i, b, n/10)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	p := Profile{Name: "zipf", FootprintBytes: 16 * addr.MiB, AvgGap: 2, RunMean: 1,
		HotFraction: 0.1, HotProbability: 0, WriteFraction: 0, ZipfAlpha: 1}
	g, err := NewSynthetic(p)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[uint64]int{}
	const n = 200000
	for i := 0; i < n; i++ {
		a, _ := g.Next()
		counts[uint64(a.Addr)/64]++
	}
	// A Zipf stream concentrates: the most popular word should hold far
	// more than a uniform share, and the distinct-word count should be
	// well below the access count.
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	words := p.FootprintBytes / 64
	uniform := float64(n) / float64(words)
	if float64(max) < 50*uniform {
		t.Errorf("zipf max count %d not skewed (uniform share %.2f)", max, uniform)
	}
	if len(counts) >= n {
		t.Errorf("zipf produced no reuse: %d distinct of %d", len(counts), n)
	}
}

func TestZipfValidation(t *testing.T) {
	p := Profile{Name: "badzipf", FootprintBytes: 1 * addr.MiB, AvgGap: 2, RunMean: 1,
		HotFraction: 0.1, ZipfAlpha: 5}
	if err := p.Validate(); err == nil {
		t.Error("alpha 5 accepted")
	}
}

func TestScatteredHotSpreadsPages(t *testing.T) {
	// Scattered hot words must touch many more distinct pages than a
	// contiguous hot region of the same size.
	mk := func(scattered bool) int {
		p := Profile{Name: "scat", FootprintBytes: 64 * addr.MiB, AvgGap: 2, RunMean: 1,
			HotFraction: 0.02, HotProbability: 1.0, ScatteredHot: scattered}
		g, err := NewSynthetic(p)
		if err != nil {
			t.Fatal(err)
		}
		pages := map[uint64]bool{}
		for i := 0; i < 50000; i++ {
			a, _ := g.Next()
			pages[uint64(a.Addr)/(64*1024)] = true
		}
		return len(pages)
	}
	contig := mk(false)
	scat := mk(true)
	if scat < contig*2 {
		t.Errorf("scattered hot pages %d not much larger than contiguous %d", scat, contig)
	}
}
