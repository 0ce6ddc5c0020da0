// Package vm models the OS virtual-memory layer that sits between a
// workload's virtual addresses and the flat physical address space the
// hybrid memory designs manage. The paper's PRT takes "the original page
// index ... decided by the OS memory allocator and the virtual to
// physical address mapping mechanism in OS" as its input; this package
// makes that mechanism explicit, with selectable frame-allocation
// policies so that the effect of allocation order (the premise of the
// hotness-based remapping allocator, Section III-D) can be studied
// directly.
package vm

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/trace"
)

// Policy selects how the OS picks a physical frame at first touch.
type Policy int

// Frame-allocation policies.
const (
	// Sequential is a bump allocator: frames are handed out in address
	// order, so pages touched together stay physically adjacent — the
	// behaviour of a freshly booted machine.
	Sequential Policy = iota
	// Fragmented picks a pseudo-random free frame, modelling a
	// long-running system whose free list is shuffled.
	Fragmented
)

// Stats counts mapper events.
type Stats struct {
	Mapped uint64 // frames allocated (first touches)
	Faults uint64 // translations that found no free frame (wrapped)
}

// Mapper is a single address space: a page table over a fixed pool of
// physical frames.
type Mapper struct {
	pageSize uint64
	frames   uint64
	policy   Policy

	table map[uint64]uint64 // virtual page -> physical frame
	next  uint64            // bump pointer (Sequential)
	free  []uint64          // free list (Fragmented)
	rng   uint64

	stats Stats
}

// New builds a mapper over physBytes of physical memory in pages of
// pageSize bytes.
func New(pageSize, physBytes uint64, policy Policy, seed uint64) (*Mapper, error) {
	if pageSize == 0 {
		return nil, fmt.Errorf("vm: page size must be positive")
	}
	frames := physBytes / pageSize
	if frames == 0 {
		return nil, fmt.Errorf("vm: no complete frame in %d bytes", physBytes)
	}
	m := &Mapper{
		pageSize: pageSize,
		frames:   frames,
		policy:   policy,
		table:    make(map[uint64]uint64),
		rng:      seed | 1,
	}
	if policy == Fragmented {
		m.free = make([]uint64, frames)
		for i := range m.free {
			m.free[i] = uint64(i)
		}
		// Fisher-Yates with the internal xorshift: a shuffled free list.
		for i := len(m.free) - 1; i > 0; i-- {
			j := m.rand() % uint64(i+1)
			m.free[i], m.free[j] = m.free[j], m.free[i]
		}
	}
	return m, nil
}

func (m *Mapper) rand() uint64 {
	m.rng ^= m.rng >> 12
	m.rng ^= m.rng << 25
	m.rng ^= m.rng >> 27
	return m.rng * 0x2545f4914f6cdd1d
}

// Stats returns a copy of the counters.
func (m *Mapper) Stats() Stats { return m.stats }

// Translate maps a virtual address to a physical address, allocating a
// frame at first touch. When physical memory is exhausted the virtual
// page aliases an existing frame (the OS would swap; the memory designs
// charge that separately) and the event is counted.
func (m *Mapper) Translate(va addr.Addr) addr.Addr {
	vpage := uint64(va) / m.pageSize
	off := uint64(va) % m.pageSize
	frame, ok := m.table[vpage]
	if !ok {
		frame, ok = m.allocate()
		if !ok {
			m.stats.Faults++
			frame = vpage % m.frames
		}
		m.table[vpage] = frame
	}
	return addr.Addr(frame*m.pageSize + off)
}

func (m *Mapper) allocate() (uint64, bool) {
	switch m.policy {
	case Fragmented:
		if len(m.free) == 0 {
			return 0, false
		}
		f := m.free[len(m.free)-1]
		m.free = m.free[:len(m.free)-1]
		m.stats.Mapped++
		return f, true
	default:
		if m.next >= m.frames {
			return 0, false
		}
		f := m.next
		m.next++
		m.stats.Mapped++
		return f, true
	}
}

// Stream translates every access of an inner stream through the mapper,
// turning a virtual-address workload into the physical-address stream
// the memory designs consume.
type Stream struct {
	S trace.Stream
	M *Mapper
}

// Next implements trace.Stream.
func (s *Stream) Next() (trace.Access, bool) {
	a, ok := s.S.Next()
	if !ok {
		return trace.Access{}, false
	}
	a.Addr = s.M.Translate(a.Addr)
	return a, true
}
