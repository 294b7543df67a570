// Package nvm simulates a byte-addressable non-volatile memory device (Intel
// Optane DC PMem in the paper's testbed) with the properties that matter for
// crash-consistency research:
//
//   - a volatile CPU-cache overlay: temporal stores (Write) are visible to
//     readers immediately but are lost on crash until flushed;
//   - explicit persistence: Flush moves cache lines to the durable image,
//     WriteNT models non-temporal stores that bypass the cache, Store8 models
//     the 8-byte atomic persistent stores that designs like MGSP and BPFS
//     build commit protocols from;
//   - media accounting: every byte that reaches the durable image is counted,
//     which is how the write-amplification experiment (Table II) is measured;
//   - deterministic crash injection: the device can be armed to cut power
//     after N media operations. It tears the in-flight operation at 8-byte
//     granularity and freezes the durable image; software keeps running on
//     the volatile overlay, and Recover restarts from the frozen image.
//
// All operations charge virtual time to the caller's sim.Ctx using the cost
// model in internal/sim and reserve bandwidth on a shared timeline, so the
// device is also the performance model shared by every simulated file system.
package nvm

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"unsafe"

	"mgsp/internal/obs"
	"mgsp/internal/sim"
)

// LineSize is the CPU cache-line size in bytes.
const LineSize = 64

// Stats aggregates media-level counters. All fields are monotonically
// increasing and safe to read concurrently. The fields are obs.Counter so
// the whole struct registers into an obs.Registry (see Register) without
// changing any accessor call site.
type Stats struct {
	// MediaWriteBytes counts bytes that reached the durable image (the
	// denominator of Table II is the user bytes; this is the numerator).
	MediaWriteBytes obs.Counter
	// MediaReadBytes counts bytes read through the device interface.
	MediaReadBytes obs.Counter
	// Flushes counts Flush calls that persisted at least one line.
	Flushes obs.Counter
	// Fences counts Fence calls.
	Fences obs.Counter
	// MediaOps counts persistence-affecting operations (used by the crash
	// injector's fail-after counter). Like every counter here it stops at
	// the power cut.
	MediaOps obs.Counter
}

// Register publishes the media counters into r under prefix (e.g. "nvm."):
// media_write_bytes, media_read_bytes, flushes, fences, media_ops.
func (s *Stats) Register(r *obs.Registry, prefix string) {
	r.RegisterCounter(prefix+"media_write_bytes", &s.MediaWriteBytes)
	r.RegisterCounter(prefix+"media_read_bytes", &s.MediaReadBytes)
	r.RegisterCounter(prefix+"flushes", &s.Flushes)
	r.RegisterCounter(prefix+"fences", &s.Fences)
	r.RegisterCounter(prefix+"media_ops", &s.MediaOps)
}

// Device is a simulated NVM DIMM set. It is safe for concurrent use by
// multiple workers as long as they do not write overlapping byte ranges
// concurrently without synchronization (the same contract real hardware
// gives software).
type Device struct {
	mem     []byte          // current contents (volatile view: caches + media)
	durable []byte          // what survives a crash; frozen from the power cut on
	dirty   []atomic.Uint64 // one bit per cache line: mem differs from durable

	costs    sim.Costs
	timeline *sim.Timeline

	stats Stats

	// Crash injection.
	failAfter   atomic.Int64 // remaining media ops before crash; <0 = disarmed
	crashed     atomic.Bool
	crashRand   *rand.Rand
	crashMu     sync.Mutex
	crashOp     int64 // device-lifetime index of the torn media op (0 = none)
	crashWorker int   // sim.Ctx.ID whose operation hit the fail point
	onCrash     func(worker int, mediaOp int64)
}

// New creates a device of the given size (rounded up to a cache line) with
// the supplied cost model.
func New(size int64, costs sim.Costs) *Device {
	if size <= 0 {
		panic("nvm: non-positive device size")
	}
	size = (size + LineSize - 1) / LineSize * LineSize
	ch := costs.Channels
	if ch < 1 {
		ch = 1
	}
	d := &Device{
		mem:      make([]byte, size),
		durable:  make([]byte, size),
		dirty:    make([]atomic.Uint64, (size/LineSize+63)/64),
		costs:    costs,
		timeline: sim.NewTimeline(ch),
	}
	d.failAfter.Store(-1)
	return d
}

// Size returns the device capacity in bytes.
func (d *Device) Size() int64 { return int64(len(d.mem)) }

// Stats returns the device's media counters.
func (d *Device) Stats() *Stats { return &d.stats }

// Costs returns the device's cost model.
func (d *Device) Costs() *sim.Costs { return &d.costs }

// Timeline returns the shared bandwidth timeline (exposed so kernel-path
// simulations can charge DMA-like transfers against the same bandwidth).
func (d *Device) Timeline() *sim.Timeline { return d.timeline }

// check bounds-checks an access and reports whether the device still has
// power. After the cut an op reaches only the volatile overlay: it charges
// no time and moves no counter.
func (d *Device) check(off int64, n int) (live bool) {
	if off < 0 || n < 0 || off+int64(n) > int64(len(d.mem)) {
		panic(fmt.Sprintf("nvm: out of range access off=%d len=%d size=%d", off, n, len(d.mem)))
	}
	return !d.crashed.Load()
}

// Read copies n=len(buf) bytes at off into buf, charging read latency and
// bandwidth. Reads observe the volatile view (caches included), like loads on
// real hardware.
func (d *Device) Read(ctx *sim.Ctx, buf []byte, off int64) {
	live := d.check(off, len(buf))
	copy(buf, d.mem[off:off+int64(len(buf))])
	if !live {
		return
	}
	d.stats.MediaReadBytes.Add(int64(len(buf)))
	if ctx.Tally != nil {
		ctx.Tally.ReadBytes.Add(int64(len(buf)))
	}
	ctx.Advance(d.costs.NVMReadLat)
	d.timeline.Reserve(ctx, int64(float64(len(buf))*d.costs.NVMReadPerByte))
}

// Write performs a temporal store: data becomes visible to readers
// immediately but is volatile until the covering lines are flushed. The cost
// charged here is the store cost; media bandwidth is charged at Flush time.
func (d *Device) Write(ctx *sim.Ctx, data []byte, off int64) {
	live := d.check(off, len(data))
	copy(d.mem[off:off+int64(len(data))], data)
	if !live {
		return
	}
	d.markDirty(off, len(data))
	ctx.Advance(d.costs.DRAMCopyCost(len(data)))
}

// WriteNT performs a non-temporal store: data is written to the durable image
// directly (the paper's PMDK path uses ntstore + fence; with ADR, stores that
// reach the write-pending queue are in the persistence domain). Media write
// bandwidth is charged immediately.
func (d *Device) WriteNT(ctx *sim.Ctx, data []byte, off int64) {
	if !d.check(off, len(data)) || d.hitFailPoint(ctx, func(rng *rand.Rand) {
		// Tear the write at 8-byte granularity: persist a random prefix.
		k := rng.Intn(len(data)/8+1) * 8
		if k > len(data) {
			k = len(data)
		}
		copy(d.durable[off:off+int64(k)], data[:k])
	}) {
		copy(d.mem[off:off+int64(len(data))], data)
		return
	}
	copy(d.mem[off:off+int64(len(data))], data)
	copy(d.durable[off:off+int64(len(data))], data)
	d.clearDirty(off, len(data))
	d.stats.MediaWriteBytes.Add(int64(len(data)))
	d.stats.MediaOps.Add(1)
	if ctx.Tally != nil {
		ctx.Tally.WriteBytes.Add(int64(len(data)))
		ctx.Tally.Ops.Add(1)
	}
	ctx.Advance(d.costs.NVMWriteLat)
	d.timeline.Reserve(ctx, d.costs.WriteCost(len(data))-d.costs.NVMWriteLat)
}

// Flush persists all dirty cache lines intersecting [off, off+n), charging
// clwb issue costs and media write bandwidth for the lines actually written.
// It returns the number of bytes persisted.
func (d *Device) Flush(ctx *sim.Ctx, off int64, n int) int {
	if !d.check(off, n) || n == 0 {
		return 0
	}
	first := off / LineSize
	last := (off + int64(n) - 1) / LineSize
	var lines []int64
	for l := first; l <= last; l++ {
		if d.testDirty(l) {
			lines = append(lines, l)
		}
	}
	if len(lines) == 0 {
		return 0
	}
	if d.hitFailPoint(ctx, func(rng *rand.Rand) {
		// Persist a random prefix of the lines; the last persisted line may
		// itself be torn at 8-byte granularity.
		k := rng.Intn(len(lines) + 1)
		for i := 0; i < k; i++ {
			d.persistLine(lines[i], LineSize)
		}
		if k < len(lines) {
			d.persistLine(lines[k], rng.Intn(LineSize/8+1)*8)
		}
	}) {
		return 0
	}
	for _, l := range lines {
		d.persistLine(l, LineSize)
		d.clearDirtyLine(l)
	}
	nb := len(lines) * LineSize
	d.stats.MediaWriteBytes.Add(int64(nb))
	d.stats.Flushes.Add(1)
	d.stats.MediaOps.Add(1)
	if ctx.Tally != nil {
		ctx.Tally.WriteBytes.Add(int64(nb))
		ctx.Tally.Ops.Add(1)
	}
	ctx.Advance(int64(len(lines)) * d.costs.CacheLineFlush)
	d.timeline.Reserve(ctx, d.costs.WriteCost(nb)-d.costs.NVMWriteLat)
	return nb
}

func (d *Device) persistLine(line int64, bytes int) {
	if bytes <= 0 {
		return
	}
	off := line * LineSize
	copy(d.durable[off:off+int64(bytes)], d.mem[off:off+int64(bytes)])
}

// Fence models an sfence: it orders prior flushes/non-temporal stores and
// charges the drain cost. In this model Flush and WriteNT persist eagerly, so
// Fence affects timing only; "flushed but not fenced" anomalies are outside
// the simulated fault model (see DESIGN.md).
func (d *Device) Fence(ctx *sim.Ctx) {
	if d.crashed.Load() {
		return
	}
	d.stats.Fences.Add(1)
	ctx.Advance(d.costs.Fence)
}

// Persist is the common clwb-loop + sfence sequence (PMDK's pmem_persist).
func (d *Device) Persist(ctx *sim.Ctx, off int64, n int) {
	d.Flush(ctx, off, n)
	d.Fence(ctx)
}

// Load8 atomically reads the 8-byte word at off (must be 8-byte aligned).
// It charges no time; callers model their own access costs.
func (d *Device) Load8(off int64) uint64 {
	d.check8(off)
	return (*atomic.Uint64)(unsafe.Pointer(&d.mem[off])).Load()
}

// Store8 atomically writes an 8-byte word and persists it immediately
// (ntstore of an aligned quadword + fence). This is the primitive that
// 8-byte-atomic commit protocols rely on.
func (d *Device) Store8(ctx *sim.Ctx, off int64, v uint64) {
	if !d.check8(off) || d.hitFailPoint(ctx, func(rng *rand.Rand) {
		if rng.Intn(2) == 1 { // the store may or may not have reached media
			(*atomic.Uint64)(unsafe.Pointer(&d.durable[off])).Store(v)
		}
	}) {
		(*atomic.Uint64)(unsafe.Pointer(&d.mem[off])).Store(v)
		return
	}
	(*atomic.Uint64)(unsafe.Pointer(&d.mem[off])).Store(v)
	(*atomic.Uint64)(unsafe.Pointer(&d.durable[off])).Store(v)
	d.stats.MediaWriteBytes.Add(8)
	d.stats.MediaOps.Add(1)
	if ctx.Tally != nil {
		ctx.Tally.WriteBytes.Add(8)
		ctx.Tally.Ops.Add(1)
	}
	ctx.Advance(d.costs.NVMWriteLat)
}

// CAS8 performs an atomic compare-and-swap on the 8-byte word at off,
// persisting the new value on success.
func (d *Device) CAS8(ctx *sim.Ctx, off int64, old, new uint64) bool {
	live := d.check8(off)
	if live {
		ctx.Advance(d.costs.Atomic)
	}
	if !(*atomic.Uint64)(unsafe.Pointer(&d.mem[off])).CompareAndSwap(old, new) {
		return false
	}
	if !live || d.hitFailPoint(ctx, func(rng *rand.Rand) {
		if rng.Intn(2) == 1 {
			(*atomic.Uint64)(unsafe.Pointer(&d.durable[off])).Store(new)
		}
	}) {
		return true
	}
	(*atomic.Uint64)(unsafe.Pointer(&d.durable[off])).Store(new)
	d.stats.MediaWriteBytes.Add(8)
	d.stats.MediaOps.Add(1)
	if ctx.Tally != nil {
		ctx.Tally.WriteBytes.Add(8)
		ctx.Tally.Ops.Add(1)
	}
	ctx.Advance(d.costs.NVMWriteLat)
	return true
}

func (d *Device) check8(off int64) (live bool) {
	if off%8 != 0 {
		panic(fmt.Sprintf("nvm: unaligned 8-byte access at %d", off))
	}
	return d.check(off, 8)
}

// ---- dirty-line bitmap ----

func (d *Device) markDirty(off int64, n int) {
	first := off / LineSize
	last := (off + int64(n) - 1) / LineSize
	for l := first; l <= last; l++ {
		w := &d.dirty[l/64]
		bit := uint64(1) << uint(l%64)
		for {
			old := w.Load()
			if old&bit != 0 || w.CompareAndSwap(old, old|bit) {
				break
			}
		}
	}
}

func (d *Device) clearDirty(off int64, n int) {
	first := off / LineSize
	last := (off + int64(n) - 1) / LineSize
	for l := first; l <= last; l++ {
		d.clearDirtyLine(l)
	}
}

func (d *Device) clearDirtyLine(l int64) {
	w := &d.dirty[l/64]
	bit := uint64(1) << uint(l%64)
	for {
		old := w.Load()
		if old&bit == 0 || w.CompareAndSwap(old, old&^bit) {
			return
		}
	}
}

func (d *Device) testDirty(l int64) bool {
	return d.dirty[l/64].Load()&(uint64(1)<<uint(l%64)) != 0
}

// ---- crash injection ----

// ArmCrash arms the fail point: the n-th media operation from now is torn,
// using a PRNG seeded with seed, and then the device cuts power.
func (d *Device) ArmCrash(n int64, seed int64) {
	d.crashMu.Lock()
	d.crashRand = rand.New(rand.NewSource(seed))
	d.crashOp = 0
	d.crashWorker = 0
	d.crashMu.Unlock()
	d.failAfter.Store(n)
}

// DisarmCrash disables the fail point.
func (d *Device) DisarmCrash() { d.failAfter.Store(-1) }

// OnCrash registers fn to be invoked exactly once at the crash instant:
// after the in-flight operation has been torn, before the cut is published
// (inside fn, Crashed still reports false). Harnesses mark the crash in
// their schedules here, so every op that returns after the mark saw the
// cut and counts as in flight. Set it before ArmCrash; pass nil to clear.
func (d *Device) OnCrash(fn func(worker int, mediaOp int64)) {
	d.crashMu.Lock()
	d.onCrash = fn
	d.crashMu.Unlock()
}

// hitFailPoint counts one media op against the armed fail point. On the
// fail point it tears the op in flight into the durable image, runs the
// OnCrash callback and cuts power, and reports true: the caller then
// completes the op in the overlay only.
func (d *Device) hitFailPoint(ctx *sim.Ctx, tear func(*rand.Rand)) bool {
	if d.failAfter.Load() < 0 {
		return false
	}
	if d.failAfter.Add(-1) != -1 {
		return false
	}
	d.crashMu.Lock()
	rng := d.crashRand
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	tear(rng)
	// The torn operation itself never reaches the MediaOps counter, so its
	// index is one past everything counted so far.
	d.crashOp = d.stats.MediaOps.Load() + 1
	d.crashWorker = ctx.ID
	fn := d.onCrash
	worker, op := d.crashWorker, d.crashOp
	d.crashMu.Unlock()
	if fn != nil {
		fn(worker, op)
	}
	d.crashed.Store(true)
	return true
}

// Crashed reports whether the device has hit its fail point and cut power.
// Drivers check it before each op and stop at the cut.
func (d *Device) Crashed() bool { return d.crashed.Load() }

// CrashInfo reports where the armed crash landed: the device-lifetime index
// of the media operation that was torn (counted from device creation, not
// from ArmCrash) and the sim.Ctx.ID of the worker that issued it. It returns
// (-1, -1) if the device has not crashed since the last ArmCrash. The values
// survive Recover so post-mortem analysis can still attribute the crash.
func (d *Device) CrashInfo() (mediaOp int64, worker int) {
	d.crashMu.Lock()
	defer d.crashMu.Unlock()
	if d.crashOp == 0 {
		return -1, -1
	}
	return d.crashOp, d.crashWorker
}

// Recover simulates machine restart, after a power cut or as a plain power
// loss on a live device: the volatile overlay is reset to the durable image,
// the fail point is disarmed, and power is back. The caller discards all
// software state (file system objects, locks) built on the previous
// incarnation and must have stopped every worker driving the device.
func (d *Device) Recover() {
	copy(d.mem, d.durable)
	for i := range d.dirty {
		d.dirty[i].Store(0)
	}
	d.crashed.Store(false)
	d.failAfter.Store(-1)
}

// Inspect returns a copy of n bytes of the volatile view at off without
// charging any virtual time (verification helper).
func (d *Device) Inspect(off int64, n int) []byte {
	if off < 0 || off+int64(n) > int64(len(d.mem)) {
		panic("nvm: inspect out of range")
	}
	out := make([]byte, n)
	copy(out, d.mem[off:off+int64(n)])
	return out
}

// InspectDurable returns a copy of n bytes of the durable image at off
// without charging any virtual time.
func (d *Device) InspectDurable(off int64, n int) []byte {
	if off < 0 || off+int64(n) > int64(len(d.durable)) {
		panic("nvm: inspect out of range")
	}
	out := make([]byte, n)
	copy(out, d.durable[off:off+int64(n)])
	return out
}

// ResetStats zeroes the media counters (between benchmark phases).
func (d *Device) ResetStats() {
	d.stats.MediaWriteBytes.Store(0)
	d.stats.MediaReadBytes.Store(0)
	d.stats.Flushes.Store(0)
	d.stats.Fences.Store(0)
	d.stats.MediaOps.Store(0)
}
