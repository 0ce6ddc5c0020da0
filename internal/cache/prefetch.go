package cache

import (
	"repro/internal/addr"
)

// StridePrefetcher is a classic reference-prediction-table prefetcher:
// it tracks per-region strides and, when a stride is confirmed twice,
// emits prefetch candidates ahead of the demand stream. It sits beside
// the L2 in the hierarchy (the usual place in SPEC-class simulations);
// the hierarchy installs its candidates quietly, so prefetched lines
// cost memory traffic but no core stalls.
type StridePrefetcher struct {
	entries []rptEntry
	degree  int // lines prefetched ahead on a confirmed stride

	Issued uint64 // candidates emitted
}

type rptEntry struct {
	tag      uint64 // region (4 KB page) tag
	lastAddr uint64 // last line number observed in the region
	stride   int64  // last observed stride in lines
	confid   uint8  // 0..3 confidence
	valid    bool
}

// NewStridePrefetcher builds a prefetcher with the given table size and
// prefetch degree.
func NewStridePrefetcher(entries, degree int) *StridePrefetcher {
	if entries < 1 {
		entries = 1
	}
	if degree < 1 {
		degree = 1
	}
	return &StridePrefetcher{entries: make([]rptEntry, entries), degree: degree}
}

// Observe feeds one demand access and returns the line base addresses to
// prefetch (possibly none). The returned slice is reused on the next
// call.
func (p *StridePrefetcher) Observe(a addr.Addr, buf []addr.Addr) []addr.Addr {
	buf = buf[:0]
	line := uint64(a) / 64
	region := uint64(a) >> 12 // 4 KB localization
	idx := region % uint64(len(p.entries))
	e := &p.entries[idx]
	if !e.valid || e.tag != region {
		*e = rptEntry{tag: region, lastAddr: line, valid: true}
		return buf
	}
	stride := int64(line) - int64(e.lastAddr)
	if stride == 0 {
		return buf
	}
	if stride == e.stride {
		if e.confid < 3 {
			e.confid++
		}
	} else {
		e.stride = stride
		e.confid = 0
	}
	e.lastAddr = line
	if e.confid < 2 {
		return buf
	}
	next := int64(line)
	for i := 0; i < p.degree; i++ {
		next += stride
		if next < 0 {
			break
		}
		buf = append(buf, addr.Addr(next*64))
		p.Issued++
	}
	return buf
}

// EnablePrefetch attaches a stride prefetcher after level li of the
// hierarchy: confirmed-stride candidates are installed into that level
// (and below stay untouched). Prefetch fills that miss the level go to
// the PrefetchSink, which the caller wires to the memory system.
func (h *Hierarchy) EnablePrefetch(li int, p *StridePrefetcher, sink func(addr.Addr)) {
	h.pf = p
	h.pfLevel = li
	h.pfSink = sink
}

// DisablePrefetch detaches the prefetcher and its sink; the lines it
// already installed stay resident.
func (h *Hierarchy) DisablePrefetch() {
	h.pf, h.pfSink = nil, nil
}

// prefetch runs the prefetcher for a demand access.
func (h *Hierarchy) prefetch(a addr.Addr) {
	if h.pf == nil {
		return
	}
	h.pfBuf = h.pf.Observe(a, h.pfBuf)
	lvl := h.levels[h.pfLevel]
	for _, pa := range h.pfBuf {
		if lvl.Contains(pa) {
			continue
		}
		hit, ev, evicted := lvl.Access(pa, false)
		_ = hit
		if evicted && ev.Dirty {
			h.installDirty(h.pfLevel+1, ev.Addr)
		}
		if h.pfSink != nil {
			h.pfSink(pa)
		}
	}
}
