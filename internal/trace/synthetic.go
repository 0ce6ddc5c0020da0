package trace

import (
	"fmt"
	"math"

	"repro/internal/addr"
)

// Profile parameterizes a synthetic workload. The knobs map one-to-one to
// the properties the paper's motivation section reasons about:
//
//   - FootprintBytes: resident set size, sets the memory-footprint signal.
//   - AvgGap: mean instructions between memory references (memory
//     intensity; lower gap pushes MPKI up).
//   - RunMean: mean sequential 64 B-words per run — spatial locality.
//     RunMean >= BlocksPerPage-scale values give mcf/xz-like page-sized
//     streams; RunMean near 1 gives wrf-like scattered references.
//   - HotFraction: share of the footprint forming the hot set.
//   - HotProbability: share of runs that target the hot set — temporal
//     locality. High values concentrate reuse; low values scan coldly.
//   - WriteFraction: stores as a share of references.
//   - PhaseAccesses: accesses between hot-set rotations (hotness drift);
//     0 disables rotation.
//   - InitSweep: emit one sequential initialization pass over the start
//     of the footprint before the steady-state mix, the way programs
//     allocate and initialize their data structures up front. Adjacent
//     allocations share access patterns (the paper's [24] observation),
//     and the eventual hot region sits at a random position, so
//     allocation policies that blindly pin first-touched pages in HBM
//     (Alloc-H) pay for it later.
type Profile struct {
	Name           string
	FootprintBytes uint64
	AvgGap         float64
	RunMean        float64
	HotFraction    float64
	HotProbability float64
	WriteFraction  float64
	PhaseAccesses  uint64
	InitSweep      bool
	// ScatteredHot spreads the hot set as individual words across the
	// whole footprint instead of one contiguous region. This is what
	// weak spatial locality really looks like: hot *words*, not hot
	// pages, so no page ever shows dense coverage (the paper's wrf
	// class in Figure 1).
	ScatteredHot bool
	// ZipfAlpha > 0 replaces the two-tier hot/cold run placement with a
	// heavy-tailed rank distribution over scattered ranks: rank r is
	// chosen with probability ~ 1/r^alpha and mapped to a pseudo-random
	// word, approximating the skewed reuse of pointer-chasing workloads.
	// HotFraction/HotProbability are ignored when set.
	ZipfAlpha float64
	Seed      uint64
}

// Validate checks the profile's parameters.
func (p Profile) Validate() error {
	switch {
	case p.FootprintBytes < 4*addr.KiB:
		return fmt.Errorf("trace: %s: footprint %d too small", p.Name, p.FootprintBytes)
	case p.AvgGap < 1:
		return fmt.Errorf("trace: %s: average gap %f below 1", p.Name, p.AvgGap)
	case p.RunMean < 1:
		return fmt.Errorf("trace: %s: run mean %f below 1", p.Name, p.RunMean)
	case p.HotFraction <= 0 || p.HotFraction > 1:
		return fmt.Errorf("trace: %s: hot fraction %f out of (0,1]", p.Name, p.HotFraction)
	case p.HotProbability < 0 || p.HotProbability > 1:
		return fmt.Errorf("trace: %s: hot probability %f out of [0,1]", p.Name, p.HotProbability)
	case p.WriteFraction < 0 || p.WriteFraction > 1:
		return fmt.Errorf("trace: %s: write fraction %f out of [0,1]", p.Name, p.WriteFraction)
	case p.ZipfAlpha < 0 || p.ZipfAlpha >= 4:
		return fmt.Errorf("trace: %s: zipf alpha %f out of [0,4)", p.Name, p.ZipfAlpha)
	}
	return nil
}

const wordBytes = 64 // generator granularity: one LLC line

// Synthetic generates an endless access stream from a Profile. Use
// trace.Limit to bound it.
type Synthetic struct {
	p     Profile
	r     *rng
	words uint64 // footprint in 64 B words

	hotWords uint64 // hot-set size in words
	hotBase  uint64 // hot-set start (rotates every PhaseAccesses)
	emitted  uint64

	// Current run state.
	runAddr  uint64 // next word index to emit
	runLeft  uint64
	runWrite bool

	// Initialization sweep over the footprint's start.
	sweepLeft  uint64
	sweepTotal uint64

	// hotList holds the scattered hot words when ScatteredHot is set.
	hotList []uint32

	// Precomputed sampling constants (see trace.go): inverse-CDF
	// geometrics and integer-domain Bernoulli thresholds, one draw each.
	gapGeom     geomParams
	runGeom     geomParams
	hotThresh   uint64
	writeThresh uint64
}

// NewSynthetic builds a generator; the profile must validate.
func NewSynthetic(p Profile) (*Synthetic, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	s := &Synthetic{
		p:           p,
		r:           newRNG(p.Seed ^ hashName(p.Name)),
		words:       p.FootprintBytes / wordBytes,
		gapGeom:     makeGeom(p.AvgGap),
		runGeom:     makeGeom(p.RunMean),
		hotThresh:   ltThresh(p.HotProbability),
		writeThresh: ltThresh(p.WriteFraction),
	}
	s.hotWords = uint64(float64(s.words) * p.HotFraction)
	if s.hotWords == 0 {
		s.hotWords = 1
	}
	// The hot region sits at a random (deterministic per profile)
	// position in the footprint.
	s.hotBase = s.r.uint64n(s.words)
	if p.ScatteredHot {
		n := s.hotWords
		if n > 1<<22 {
			n = 1 << 22 // cap the table; sampling keeps the distribution
		}
		// Hot words scatter inside a region 4x the hot-set size: some
		// pages hold hot words (about a quarter of their words), most
		// hold none — sub-page hotness without page-level density.
		region := 4 * s.hotWords
		if region > s.words {
			region = s.words
		}
		s.hotList = make([]uint32, n)
		for i := range s.hotList {
			s.hotList[i] = uint32((s.hotBase + s.r.uint64n(region)) % s.words)
		}
	}
	if p.InitSweep {
		// Initialize (at most the first 4 MB of) the footprint so pages
		// are allocated in address order; a full sweep of a huge
		// footprint would otherwise dominate the measured window.
		s.sweepLeft = s.words
		if s.sweepLeft > 1<<16 {
			s.sweepLeft = 1 << 16
		}
		s.sweepTotal = s.sweepLeft
	}
	return s, nil
}

func hashName(name string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

// Next implements Stream; the stream never ends.
func (s *Synthetic) Next() (Access, bool) {
	if s.sweepLeft > 0 {
		word := (s.sweepTotal - s.sweepLeft) % s.words
		s.sweepLeft--
		s.emitted++
		return Access{Addr: addr.Addr(word * wordBytes), Write: true, Gap: 1}, true
	}
	if s.runLeft == 0 {
		s.startRun()
	}
	word := s.runAddr % s.words
	s.runAddr++
	s.runLeft--
	s.emitted++
	if s.p.PhaseAccesses > 0 && s.emitted%s.p.PhaseAccesses == 0 {
		s.rotateHotSet()
	}
	gap := uint32(1)
	if !s.gapGeom.one {
		gap = uint32(s.r.geometricP(s.gapGeom))
	}
	return Access{
		Addr:  addr.Addr(word * wordBytes),
		Write: s.runWrite,
		Gap:   gap,
	}, true
}

func (s *Synthetic) startRun() {
	var base uint64
	if s.p.ZipfAlpha > 0 {
		base = s.zipfWord()
		s.runAddr = base
		s.runLeft = s.r.geometricP(s.runGeom)
		s.runWrite = s.r.next()>>11 < s.writeThresh
		return
	}
	if s.r.next()>>11 < s.hotThresh {
		if s.hotList != nil {
			base = uint64(s.hotList[s.r.uint64n(uint64(len(s.hotList)))])
		} else {
			base = (s.hotBase + s.r.uint64n(s.hotWords)) % s.words
		}
	} else {
		base = s.r.uint64n(s.words)
	}
	s.runAddr = base
	s.runLeft = s.r.geometricP(s.runGeom)
	s.runWrite = s.r.next()>>11 < s.writeThresh
}

// zipfWord samples a word index with a ~1/rank^alpha distribution by
// inverse-CDF sampling, then scatters the rank across the footprint with
// a fixed odd multiplier so the hot ranks are not contiguous.
func (s *Synthetic) zipfWord() uint64 {
	alpha := s.p.ZipfAlpha
	u := s.r.float64()
	if u <= 0 {
		u = 1e-12
	}
	var rank uint64
	if alpha == 1 {
		// CDF ~ ln(r)/ln(N): r = N^u.
		rank = uint64(math.Pow(float64(s.words), u))
	} else {
		// CDF ~ (r^(1-a)-1)/(N^(1-a)-1).
		na := math.Pow(float64(s.words), 1-alpha)
		rank = uint64(math.Pow(u*(na-1)+1, 1/(1-alpha)))
	}
	if rank >= s.words {
		rank = s.words - 1
	}
	// Scatter ranks over the footprint deterministically.
	return (rank * 0x9E3779B1) % s.words
}

// NextBatch implements BatchStream; the stream never ends, so the batch
// is always full.
func (s *Synthetic) NextBatch(dst []Access) int {
	for i := range dst {
		dst[i], _ = s.Next()
	}
	return len(dst)
}

// rotateHotSet drifts the hot set to new locations, modelling the
// hotness changes that force migrations in the paper's designs.
func (s *Synthetic) rotateHotSet() {
	s.hotBase = s.r.uint64n(s.words)
	if s.hotList != nil {
		// Re-draw a quarter of the scattered hot words inside the new
		// region.
		region := 4 * s.hotWords
		if region > s.words {
			region = s.words
		}
		for i := 0; i < len(s.hotList)/4; i++ {
			s.hotList[s.r.uint64n(uint64(len(s.hotList)))] =
				uint32((s.hotBase + s.r.uint64n(region)) % s.words)
		}
	}
}
