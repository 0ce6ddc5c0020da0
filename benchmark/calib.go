package main

import (
	"math"
	"runtime/debug"
	"sync"
	"time"
)

// Host time on a shared machine drifts with the load other tenants put
// on it: over minutes the same rep slowed by a quarter, and the median
// rep of a 25-second run moved 10-20% from run to run (README.md has the
// measurements).
// So each child times a fixed calibration kernel right before and right
// after its measured work, on the same core as far as the scheduler
// allows, and host times are reported in reference seconds: measured
// time divided by the rep's speed, the kernel's time over its time on the
// reference core. The kernel lives beside the benchmark, so a change to
// the simulator cannot move it.
//
// The kernel has two parts, a dependent ALU chain and a pointer chase
// through a 256 KiB ring, because contention from other tenants slows the
// two differently and the simulator does both. The speed is the geometric
// mean of the two parts' slowdowns. The ring goes back to the OS before
// the measured work starts, so it barely counts in that work's peak RSS.

const (
	calALUIters   = 5_000_000
	calChaseSteps = 2_150_000
	calRingWords  = 1 << 16

	// refCalS is each part's duration on the reference core, the fastest
	// seen on the machine that recorded the README's baseline.
	refCalS = 0.010
)

// calSink keeps the kernel's results live, so the compiler keeps its loops.
var calSink uint64

// calRing is one cycle through every slot (Sattolo's shuffle), so the
// chase visits the whole ring in an order no prefetcher predicts.
func calRing() []uint32 {
	r := make([]uint32, calRingWords)
	for i := range r {
		r[i] = uint32(i)
	}
	x := uint64(0x9e3779b97f4a7c15)
	for i := len(r) - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		r[i], r[j] = r[j], r[i]
	}
	return r
}

// calibrate runs the kernel on workers goroutines at once, one per
// simulation worker, and returns the mean duration of each part.
func calibrate(workers int) (alu, chase float64) {
	ring := calRing()
	defer debug.FreeOSMemory()
	var wg sync.WaitGroup
	var mu sync.Mutex
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			x := uint64(88172645463325252)
			for i := 0; i < calALUIters; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
			}
			t1 := time.Now()
			p := uint32(0)
			for i := 0; i < calChaseSteps; i++ {
				p = ring[p]
			}
			t2 := time.Now()
			mu.Lock()
			alu += t1.Sub(t0).Seconds()
			chase += t2.Sub(t1).Seconds()
			calSink += x + uint64(p)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return alu / float64(workers), chase / float64(workers)
}

// speed is how many times slower than the reference core the machine ran
// the kernel, from the parts' durations before and after the call.
func speed(alu0, chase0, alu1, chase1 float64) float64 {
	return math.Sqrt((alu0+alu1)/2*(chase0+chase1)/2) / refCalS
}
