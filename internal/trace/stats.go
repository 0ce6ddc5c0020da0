package trace

import "repro/internal/addr"

// Characteristics summarizes a stream, used by cmd/bbtrace and by tests to
// check that generated streams actually show the locality class their
// profile promises.
type Characteristics struct {
	Accesses      uint64
	Instructions  uint64
	Writes        uint64
	FootprintB    uint64  // distinct 64 B words touched x 64
	SeqFraction   float64 // accesses at prev+64 (spatial locality proxy)
	ReuseFraction float64 // accesses to a word already touched (temporal proxy)
	MinAddr       addr.Addr
	MaxAddr       addr.Addr
}

// Characterize consumes up to max accesses from s and summarizes them.
func Characterize(s Stream, max uint64) Characteristics {
	var c Characteristics
	seen := make(map[uint64]struct{})
	var prev uint64
	var seq, reuse uint64
	first := true
	for c.Accesses < max {
		a, ok := s.Next()
		if !ok {
			break
		}
		c.Accesses++
		c.Instructions += uint64(a.Gap)
		if a.Write {
			c.Writes++
		}
		w := uint64(a.Addr) / wordBytes
		if _, dup := seen[w]; dup {
			reuse++
		} else {
			seen[w] = struct{}{}
		}
		if !first && uint64(a.Addr) == prev+wordBytes {
			seq++
		}
		if first || a.Addr < c.MinAddr {
			c.MinAddr = a.Addr
		}
		if a.Addr > c.MaxAddr {
			c.MaxAddr = a.Addr
		}
		prev = uint64(a.Addr)
		first = false
	}
	c.FootprintB = uint64(len(seen)) * wordBytes
	if c.Accesses > 1 {
		c.SeqFraction = float64(seq) / float64(c.Accesses-1)
	}
	if c.Accesses > 0 {
		c.ReuseFraction = float64(reuse) / float64(c.Accesses)
	}
	return c
}
