// Package core implements Bumblebee, the paper's Hybrid Memory Management
// Controller (HMMC): a unified set-associative PLE remapping table (PRT),
// a Block Location Entry (BLE) array, and a hotness tracker that together
// let every die-stacked HBM page serve as either a DRAM cache page (cHBM)
// or OS-visible memory (mHBM), with the cHBM:mHBM ratio adapting at
// runtime to each remapping set's spatial locality (SL = Na - Nn - Nc),
// temporal locality (hot-table counters vs. the threshold T) and memory
// footprint (HBM occupancy Rh and OS footprint spill).
package core

import "math/bits"

// bitvec is a block-granularity bit vector sized for one page's valid or
// dirty bits (the paper's BLE bit vectors).
type bitvec []uint64

func newBitvec(nbits int) bitvec {
	return make(bitvec, (nbits+63)/64)
}

func (v bitvec) get(i uint64) bool { return v[i/64]&(1<<(i%64)) != 0 }
func (v bitvec) set(i uint64)      { v[i/64] |= 1 << (i % 64) }

// setAll sets the first nbits bits.
func (v bitvec) setAll(nbits int) {
	for i := range v {
		v[i] = ^uint64(0)
	}
	if extra := len(v)*64 - nbits; extra > 0 {
		v[len(v)-1] >>= uint(extra)
	}
}

// reset clears every bit.
func (v bitvec) reset() {
	for i := range v {
		v[i] = 0
	}
}

// popcount returns the number of set bits.
func (v bitvec) popcount() int {
	n := 0
	for _, w := range v {
		n += bits.OnesCount64(w)
	}
	return n
}
