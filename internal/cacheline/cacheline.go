// Package cacheline keeps a struct's fields on cache lines of their own.
//
// A fan-out sweep replays one trace into several designs on several
// workers. The small structs each design writes on every request (its
// device bundle, metadata model, mover, capacity model, fetch tracker,
// DRAM channels) come from the same allocator spans as the other
// designs' copies, so without padding two workers write neighbouring
// objects on one line and the line bounces between their cores.
package cacheline

// Size is the cache-line size the padding assumes: 64 B on x86-64 and
// on the arm64 server cores.
const Size = 64

// Pad fills one cache line. A struct that starts and ends with a Pad
// keeps its fields at least Size bytes from whatever the allocator
// places on either side of it.
type Pad [Size]byte
