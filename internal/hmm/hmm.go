// Package hmm provides the scaffolding shared by every hybrid memory
// design in this repository: the MemSystem interface the CPU model drives,
// the device bundle (die-stacked HBM + off-chip DRAM) with flat-address
// mapping and page-copy helpers, the metadata access-cost model (on-chip
// SRAM vs. in-HBM), and the over-fetch tracker used for the paper's
// Section IV-B analysis.
package hmm

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/cacheline"
	"repro/internal/config"
	"repro/internal/dram"
	"repro/internal/faults"
	"repro/internal/telemetry"
)

// MemSystem is a hybrid memory design as seen by the CPU model: it
// receives the LLC miss stream plus LLC dirty writebacks and internally
// decides which device serves which bytes.
type MemSystem interface {
	// Name identifies the design ("bumblebee", "hybrid2", ...).
	Name() string
	// Access serves one LLC miss for the 64 B line at a, starting no
	// earlier than CPU cycle now; it returns the completion cycle.
	Access(now uint64, a addr.Addr, write bool) uint64
	// Writeback accepts an LLC dirty eviction of the 64 B line at a.
	// Writebacks are posted: the core never waits for them.
	Writeback(now uint64, a addr.Addr)
	// Counters returns the design's event counters.
	Counters() Counters
	// Devices exposes the underlying device models for traffic and
	// energy accounting.
	Devices() *Devices
}

// StateReporter is implemented by designs that can report the
// design-specific half of an epoch sample (live cHBM:mHBM split, hot-table
// occupancy, mover budget use). The harness type-asserts for it at every
// epoch boundary; designs without dynamic state simply don't implement it.
type StateReporter interface {
	TelemetryState() telemetry.DesignState
}

// Counters are the design-independent event counts every MemSystem
// reports. Traffic and energy live in the device stats; these counters
// explain *why* the traffic happened.
type Counters struct {
	Requests   uint64 // LLC misses served
	Writebacks uint64 // LLC dirty evictions received

	ServedHBM  uint64 // demand requests whose data came from HBM
	ServedDRAM uint64 // demand requests whose data came from off-chip DRAM

	BlockFills     uint64 // block fetches into cHBM
	PageMigrations uint64 // page moves into mHBM / POM
	Evictions      uint64 // pages or blocks evicted from HBM
	ModeSwitches   uint64 // cHBM<->mHBM transitions (Bumblebee-family)
	PageSwaps      uint64 // full page swaps (POM designs)

	MetaLookups uint64 // metadata reads on the critical path
	MetaHBM     uint64 // metadata reads that had to go to HBM

	PageFaults uint64 // accesses beyond the design's OS-visible capacity

	FetchedBytes uint64 // bytes brought into HBM by fills/migrations
	UsedBytes    uint64 // of those, bytes actually touched before eviction

	// RAS counters, populated only when a fault injector is attached
	// (internal/faults). The first five mirror the injector's event
	// counts; the Retire* counters are maintained by RAS-aware designs
	// (today core.Bumblebee) and stay zero for fault-oblivious baselines —
	// the measurable degradation gap.
	ECCCorrected      uint64 // transient errors corrected in-line
	ECCRetried        uint64 // transient errors that forced a detect-retry
	FramesRetired     uint64 // HBM frames permanently retired
	RetiredServes     uint64 // accesses served from an already-retired frame
	ThrottledAccesses uint64 // accesses inside a thermal throttle window
	RetireMigrations  uint64 // mHBM pages migrated to DRAM before frame retirement
	RetireDrops       uint64 // cHBM frames dropped (written back) on retirement
	RetireDeferred    uint64 // retirements deferred waiting for mover bandwidth
}

// HBMServeRate returns the fraction of demand requests served from HBM.
func (c Counters) HBMServeRate() float64 {
	if c.Requests == 0 {
		return 0
	}
	return float64(c.ServedHBM) / float64(c.Requests)
}

// OverfetchRate returns the share of bytes brought into HBM that were
// never touched before eviction (Section IV-B). Pages still resident at
// the end of the run are settled by the design calling FetchTracker.Drain.
func (c Counters) OverfetchRate() float64 {
	if c.FetchedBytes == 0 {
		return 0
	}
	used := c.UsedBytes
	if used > c.FetchedBytes {
		used = c.FetchedBytes
	}
	return 1 - float64(used)/float64(c.FetchedBytes)
}

// Devices bundles the two memory devices with the flat-address geometry.
// The OS-visible flat address space is [0, DRAM+HBM): addresses below the
// DRAM capacity name off-chip DRAM page frames, the rest name HBM frames
// (used only when HBM serves as mHBM).
//
// Devices, Meta, MetaCache, Mover, OSMem and FetchTracker are read or
// written on every request of one design, and a fan-out sweep runs the
// designs of a trace on several workers at once, so each starts and ends
// with a cacheline.Pad: another design's copy next to it in memory then
// shares no cache line with its fields.
type Devices struct {
	_    cacheline.Pad
	HBM  *dram.Device
	DRAM *dram.Device
	Geom *addr.Geometry

	// RAS is the optional fault injector. When nil (the default) every
	// HBM access passes straight to the device model, byte-identical to
	// the pre-RAS behaviour; when set, every HBM access — demand, fill,
	// migration, metadata — is routed through the injector's hook.
	RAS *faults.Injector

	// Tel is the optional telemetry probe. Nil (the default) is the
	// disabled state: designs call it unconditionally on the access path
	// and every probe method is nil-safe at pointer-compare cost.
	Tel *telemetry.Probe
	_   cacheline.Pad
}

// AttachFaults installs a fault injector on the HBM access path. A nil
// injector (disabled config) is a no-op.
func (d *Devices) AttachFaults(inj *faults.Injector) {
	d.RAS = inj
	if inj != nil {
		inj.Probe = d.Tel
	}
}

// AttachTelemetry installs a telemetry probe, propagating it to an already
// attached fault injector so RAS events land in the same trace. A nil
// probe detaches.
func (d *Devices) AttachTelemetry(p *telemetry.Probe) {
	d.Tel = p
	if d.RAS != nil {
		d.RAS.Probe = p
	}
}

// AddRAS merges the injector's event counters into c; without an injector
// the RAS fields stay zero. Every design's Counters() calls this so RAS
// events surface uniformly in run results.
func (d *Devices) AddRAS(c *Counters) {
	if d.RAS == nil {
		return
	}
	r := d.RAS.Counters()
	c.ECCCorrected = r.ECCCorrected
	c.ECCRetried = r.ECCRetried
	c.FramesRetired = r.FramesRetired
	c.RetiredServes = r.RetiredServes
	c.ThrottledAccesses = r.ThrottledAccesses
}

// HBMAccess reads or writes bytes at device-local HBM address a, routing
// the access through the fault injector when one is attached: thermal
// throttle windows and ECC corrections delay the start, and a detect-retry
// re-issues the whole access after a backoff. Designs must use this (or
// the page-frame wrappers below) for all HBM traffic rather than calling
// the device model directly, or they escape fault injection.
func (d *Devices) HBMAccess(now uint64, a addr.Addr, bytes uint64, write bool) uint64 {
	if d.RAS == nil {
		return d.HBM.Access(now, a, bytes, write)
	}
	start, retries := d.RAS.Before(now, uint64(a)/d.Geom.PageSize)
	end := d.HBM.Access(start, a, bytes, write)
	for r := 0; r < retries; r++ {
		end = d.HBM.Access(end+d.RAS.BackoffCycles(), a, bytes, write)
	}
	return end
}

// NewDevices builds the device bundle for a system configuration.
func NewDevices(sys config.System) (*Devices, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	geom, err := sys.Geometry()
	if err != nil {
		return nil, err
	}
	return NewDevicesWithGeometry(sys, geom)
}

// NewDevicesWithGeometry builds the device bundle with an explicit
// geometry; baseline designs that manage different page/block sizes than
// the system default use this.
func NewDevicesWithGeometry(sys config.System, geom *addr.Geometry) (*Devices, error) {
	hbm, err := dram.New(sys.HBM, sys.Core.FreqMHz)
	if err != nil {
		return nil, err
	}
	ddr, err := dram.New(sys.DRAM, sys.Core.FreqMHz)
	if err != nil {
		return nil, err
	}
	return &Devices{HBM: hbm, DRAM: ddr, Geom: geom}, nil
}

// frameAddr returns the device-local address of byte offset off in page
// frame page; HBM and DRAM frames share the geometry's page size.
func (d *Devices) frameAddr(page, off uint64) addr.Addr {
	return addr.Addr(page*d.Geom.PageSize + off)
}

// ReadHBM reads bytes from HBM page frame page at byte offset off.
func (d *Devices) ReadHBM(now, page, off, bytes uint64) uint64 {
	return d.HBMAccess(now, d.frameAddr(page, off), bytes, false)
}

// WriteHBM writes bytes to HBM page frame page at byte offset off.
func (d *Devices) WriteHBM(now, page, off, bytes uint64) uint64 {
	return d.HBMAccess(now, d.frameAddr(page, off), bytes, true)
}

// ReadDRAM reads bytes from DRAM page frame page at byte offset off.
func (d *Devices) ReadDRAM(now, page, off, bytes uint64) uint64 {
	return d.DRAM.Access(now, d.frameAddr(page, off), bytes, false)
}

// WriteDRAM writes bytes to DRAM page frame page at byte offset off.
func (d *Devices) WriteDRAM(now, page, off, bytes uint64) uint64 {
	return d.DRAM.Access(now, d.frameAddr(page, off), bytes, true)
}

// AccessHBM reads or writes bytes in HBM page frame page.
func (d *Devices) AccessHBM(now, page, off, bytes uint64, write bool) uint64 {
	return d.HBMAccess(now, d.frameAddr(page, off), bytes, write)
}

// AccessDRAM reads or writes bytes in DRAM page frame page.
func (d *Devices) AccessDRAM(now, page, off, bytes uint64, write bool) uint64 {
	return d.DRAM.Access(now, d.frameAddr(page, off), bytes, write)
}

// CopyDRAMToHBM moves bytes from a DRAM frame region to an HBM frame
// region (store-and-forward: the write starts when the read finishes).
func (d *Devices) CopyDRAMToHBM(now, dramPage, dramOff, hbmPage, hbmOff, bytes uint64) uint64 {
	rd := d.ReadDRAM(now, dramPage, dramOff, bytes)
	return d.WriteHBM(rd, hbmPage, hbmOff, bytes)
}

// CopyHBMToDRAM moves bytes from an HBM frame region to a DRAM frame
// region.
func (d *Devices) CopyHBMToDRAM(now, hbmPage, hbmOff, dramPage, dramOff, bytes uint64) uint64 {
	rd := d.ReadHBM(now, hbmPage, hbmOff, bytes)
	return d.WriteDRAM(rd, dramPage, dramOff, bytes)
}

// CopyHBMToHBM moves bytes between two HBM frames (No-Multi mode switches).
func (d *Devices) CopyHBMToHBM(now, srcPage, srcOff, dstPage, dstOff, bytes uint64) uint64 {
	rd := d.ReadHBM(now, srcPage, srcOff, bytes)
	return d.WriteHBM(rd, dstPage, dstOff, bytes)
}

// SwapPages exchanges a DRAM frame and an HBM frame (POM swap): both
// pages cross both buses.
func (d *Devices) SwapPages(now, dramPage, hbmPage uint64) uint64 {
	size := d.Geom.PageSize
	a := d.CopyDRAMToHBM(now, dramPage, 0, hbmPage, 0, size)
	b := d.CopyHBMToDRAM(now, hbmPage, 0, dramPage, 0, size)
	if a > b {
		return a
	}
	return b
}

// Mover models the data movement module's finite bandwidth with a byte
// budget: asynchronous movements (migrations, mode switches, evictions,
// swaps) may consume at most a fixed share of the off-chip DRAM
// bandwidth. A movement of B bytes keeps the engine busy for
// B*cyclesPerByte cycles; while busy, new movement opportunities are
// skipped and naturally retried by later accesses. Without this budget a
// migration-happy phase would charge the devices hundreds of times the
// demand bandwidth, which no real controller's movement engine would
// issue — and which would (wrongly) make every POM design look
// catastrophic on streaming workloads.
type Mover struct {
	_             cacheline.Pad
	nextFree      float64 // cycle at which the engine can start a new movement
	cyclesPerByte float64

	Started uint64
	Skipped uint64
	_       cacheline.Pad
}

// NewMover builds a movement engine with the given budget in bytes per
// CPU cycle.
func NewMover(bytesPerCycle float64) *Mover {
	if bytesPerCycle <= 0 {
		bytesPerCycle = 1
	}
	return &Mover{cyclesPerByte: 1 / bytesPerCycle}
}

// TryStart asks to move `bytes` starting at cycle now. It returns false
// (and the caller skips the movement) while the engine is busy; on
// success it books the engine for the movement's duration.
func (m *Mover) TryStart(now uint64, bytes uint64) bool {
	if float64(now) < m.nextFree {
		m.Skipped++
		return false
	}
	m.nextFree = float64(now) + float64(bytes)*m.cyclesPerByte
	m.Started++
	return true
}

// Charge books additional bytes onto a movement already started (for
// eviction chains whose size is only known as they unfold).
func (m *Mover) Charge(bytes uint64) {
	m.nextFree += float64(bytes) * m.cyclesPerByte
}

// OSMem models the OS-visible memory capacity of a design. A cache-only
// design hides the whole HBM from the OS, so workload pages beyond the
// off-chip DRAM capacity must be paged from backing store; POM and hybrid
// designs expose (part of) HBM as memory and avoid those faults — the
// capacity benefit the paper's HMF(5) flush exists to maximize. Accesses
// to pages beyond the capacity pay PenaltyCycles (an optimistic NVMe
// swap-in) and are then served from the aliased frame.
type OSMem struct {
	_ cacheline.Pad
	// Limit is the OS-visible capacity in bytes, rounded down to whole
	// pages: an address lies in a visible page exactly when it is below
	// Limit, since a/P < C/P (whole quotients) is a < (C/P)*P.
	Limit         addr.Addr
	PenaltyCycles uint64
	Faults        uint64
	_             cacheline.Pad
}

// NewOSMem builds the capacity model: capacityBytes of OS-visible memory
// in pages of pageBytes, with a fault penalty of penaltyNS.
func NewOSMem(capacityBytes, pageBytes uint64, penaltyNS float64, cpuFreqMHz uint64) *OSMem {
	return &OSMem{
		Limit:         addr.Addr(capacityBytes / pageBytes * pageBytes),
		PenaltyCycles: uint64(penaltyNS * float64(cpuFreqMHz) / 1e3),
	}
}

// Admit charges a page fault when a lies in a page beyond the OS-visible
// capacity and returns the cycle at which the access may proceed.
func (o *OSMem) Admit(now uint64, a addr.Addr) uint64 {
	if o == nil || a < o.Limit || o.PenaltyCycles == 0 {
		return now
	}
	o.Faults++
	return now + o.PenaltyCycles
}

// Fault charges one unconditional page fault: used when a page that
// should fit the OS-visible capacity cannot actually be given a frame
// (e.g. Bumblebee's No-HMF ablation, which cannot flush cHBM to make
// room).
func (o *OSMem) Fault(now uint64) uint64 {
	if o == nil || o.PenaltyCycles == 0 {
		return now
	}
	o.Faults++
	return now + o.PenaltyCycles
}

// Meta models the latency of metadata lookups and updates. When InHBM is
// false the metadata lives in on-chip SRAM and costs SRAMCycles per
// lookup; otherwise each lookup reads (and each update writes) one 64 B
// metadata line in HBM, competing with demand traffic — the paper's
// Meta-H ablation and the in-HBM metadata of Chameleon/Hybrid2.
type Meta struct {
	_          cacheline.Pad
	InHBM      bool
	SRAMCycles uint64
	Dev        *Devices

	Lookups uint64
	HBMHits uint64
	_       cacheline.Pad
}

// NewMeta builds the metadata cost model from a system config.
func NewMeta(sys config.System, dev *Devices, inHBM bool) *Meta {
	cyc := uint64(sys.SRAMMetaNS * float64(sys.Core.FreqMHz) / 1e3)
	if cyc == 0 {
		cyc = 1
	}
	return &Meta{InHBM: inHBM, SRAMCycles: cyc, Dev: dev}
}

// metaLine picks a deterministic 64 B HBM line for metadata key k. The
// metadata region aliases the top HBM frame; the exact placement only
// matters for bank-conflict realism.
func (m *Meta) metaLine(k uint64) (page, off uint64) {
	g := m.Dev.Geom
	lines := g.PageSize / 64
	return g.HBMPages() - 1, (k % lines) * 64
}

// Lookup charges one metadata read keyed by k and returns the cycle the
// metadata is available.
func (m *Meta) Lookup(now uint64, k uint64) uint64 {
	m.Lookups++
	if !m.InHBM {
		return now + m.SRAMCycles
	}
	m.HBMHits++
	page, off := m.metaLine(k)
	return m.Dev.ReadHBM(now, page, off, 64)
}

// Update charges one metadata write keyed by k (posted; returns
// immediately for SRAM, after the write for HBM).
func (m *Meta) Update(now uint64, k uint64) uint64 {
	if !m.InHBM {
		return now + m.SRAMCycles
	}
	m.HBMHits++
	page, off := m.metaLine(k)
	return m.Dev.WriteHBM(now, page, off, 64)
}

// MetaCache is a direct-mapped SRAM cache in front of in-HBM metadata,
// modelling the "hundreds of kilobytes SRAM used as a metadata cache" of
// KNL and Hybrid2. A hit costs the SRAM latency; a miss additionally
// reads the metadata line from HBM.
type MetaCache struct {
	_    cacheline.Pad
	meta *Meta
	tags []uint64 // key+1 of the entry held in each slot; 0 is empty

	Hits, Misses uint64
	_            cacheline.Pad
}

// NewMetaCache builds a metadata cache with the given number of entries
// for a design whose keys are all below keys. It allocates only the
// min(entries, keys) slots those keys can reach: a key below both maps
// to its own slot either way, so no lookup's outcome changes.
func NewMetaCache(meta *Meta, entries int, keys uint64) (*MetaCache, error) {
	if entries <= 0 || keys == 0 {
		return nil, fmt.Errorf("hmm: metadata cache needs positive entries and keys, got %d and %d", entries, keys)
	}
	return &MetaCache{
		meta: meta,
		tags: make([]uint64, min(uint64(entries), keys)),
	}, nil
}

// Lookup resolves metadata key k through the cache.
func (c *MetaCache) Lookup(now uint64, k uint64) uint64 {
	idx := k % uint64(len(c.tags))
	if c.tags[idx] == k+1 {
		c.Hits++
		return now + c.meta.SRAMCycles
	}
	c.Misses++
	c.tags[idx] = k + 1
	// Miss: SRAM probe plus the in-HBM metadata line read.
	page, off := c.meta.metaLine(k)
	c.meta.Lookups++
	c.meta.HBMHits++
	return c.meta.Dev.ReadHBM(now+c.meta.SRAMCycles, page, off, 64)
}

// FetchTracker accounts over-fetching: bytes brought into HBM versus
// bytes of those actually touched before eviction, at 64 B granularity.
// Frame keys are small dense integers (HBM frames or way slots), so the
// per-frame bitmaps live in one flat arena indexed by frame instead of a
// map — the common OnUse/OnFetch path is two loads and no hashing.
type FetchTracker struct {
	_            cacheline.Pad
	wordsPerPage uint64
	bmWords      uint64   // bitmap words per frame
	bits         []uint64 // [frame*bmWords+w], fetched-and-unused bitmap
	present      []bool   // frame has live bookkeeping

	Fetched uint64
	Used    uint64
	_       cacheline.Pad
}

// NewFetchTracker builds a tracker for pages of pageSize bytes.
func NewFetchTracker(pageSize uint64) *FetchTracker {
	wpp := pageSize / 64
	return &FetchTracker{
		wordsPerPage: wpp,
		bmWords:      (wpp + 63) / 64,
	}
}

// bitmap returns frame page's bitmap words, growing the arena on first
// touch of a new high-water frame.
func (t *FetchTracker) bitmap(page uint64) []uint64 {
	if page >= uint64(len(t.present)) {
		n := page + 1
		if n < 2*uint64(len(t.present)) {
			n = 2 * uint64(len(t.present))
		}
		bits := make([]uint64, n*t.bmWords)
		copy(bits, t.bits)
		present := make([]bool, n)
		copy(present, t.present)
		t.bits, t.present = bits, present
	}
	t.present[page] = true
	return t.bits[page*t.bmWords : (page+1)*t.bmWords]
}

// OnFetch records that bytes at offset off of HBM frame page were brought
// in from off-chip DRAM; they start out unused.
func (t *FetchTracker) OnFetch(page, off, bytes uint64) {
	t.Fetched += bytes
	bm := t.bitmap(page)
	for w := off / 64; w < (off+bytes+63)/64 && w < t.wordsPerPage; w++ {
		bm[w/64] |= 1 << (w % 64)
	}
}

// OnUse records a demand touch of bytes at offset off of HBM frame page;
// first touches of fetched words count toward Used.
func (t *FetchTracker) OnUse(page, off, bytes uint64) {
	if page >= uint64(len(t.present)) || !t.present[page] {
		return
	}
	bm := t.bits[page*t.bmWords : (page+1)*t.bmWords]
	for w := off / 64; w < (off+bytes+63)/64 && w < t.wordsPerPage; w++ {
		mask := uint64(1) << (w % 64)
		if bm[w/64]&mask != 0 {
			bm[w/64] &^= mask
			t.Used += 64
		}
	}
}

// OnEvict drops frame page's bookkeeping: fetched-but-unused words stay
// counted as over-fetch.
func (t *FetchTracker) OnEvict(page uint64) {
	if page >= uint64(len(t.present)) || !t.present[page] {
		return
	}
	t.present[page] = false
	bm := t.bits[page*t.bmWords : (page+1)*t.bmWords]
	for i := range bm {
		bm[i] = 0
	}
}

// Drain finalizes accounting at end of run; resident unfetched words stay
// unused, matching the paper's "brought in HBM but unused" definition.
func (t *FetchTracker) Drain() {
	for i := range t.bits {
		t.bits[i] = 0
	}
	for i := range t.present {
		t.present[i] = false
	}
}
