// Package alloc provides a block allocator for regions of the simulated NVM
// device. Allocation state lives in DRAM and is rebuilt after a crash by each
// file system's recovery scan (the approach NOVA takes: the kernel keeps the
// free list volatile and reconstructs it from the persistent logs at mount).
package alloc

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"mgsp/internal/sim"
)

// ErrNoSpace is returned when the region cannot satisfy an allocation.
var ErrNoSpace = errors.New("alloc: out of space")

const (
	// allocShards is the number of per-worker free-list shards fed by the
	// global bitmap. Power of two so worker hashes reduce with a mask.
	allocShards = 16
	// refillBatch is how many single blocks one global scan pulls into a
	// shard. The global mutex is a sim.Mutex, so every critical section
	// books exclusive VIRTUAL time — at 16+ workers a per-op acquisition
	// serializes the whole fleet no matter how short the real section is.
	// Batching moves that cost to one booking per refillBatch allocations.
	refillBatch = 8
)

// allocShard is one worker-sharded free list: device offsets of single
// blocks pre-allocated from the global bitmap (bit set, refcount 1) and
// parked here for lock-free handout. The mutex is a plain sync.Mutex —
// shard traffic is worker-private by construction, so it models no
// virtual-time contention; a cached pop charges only the cost model's
// Atomic latency.
type allocShard struct {
	mu   sync.Mutex
	free []int64
	_    [40]byte // keep neighboring shards off one cache line
}

// Allocator hands out fixed-size blocks from a contiguous device region.
// It is safe for concurrent use; each allocation charges the cost model's
// BlockAlloc time to the caller (amortized over a refill batch for
// single-block allocations, which ride per-worker shard caches).
type Allocator struct {
	mu        sim.Mutex
	start     int64
	blockSize int64
	nblocks   int64
	// free counts unallocated blocks: it changes under mu (or in the
	// single-threaded recovery scan) wherever a bitmap bit does, and is
	// atomic so FreeBlocks and UsedBlocks read it without mu.
	free   atomic.Int64
	hint   int64
	bitmap []uint64 // 1 = allocated
	// refs is the per-block reference count, nonzero iff the bitmap bit is
	// set. Written under mu (or by the single-threaded recovery scan);
	// atomic because RefCount reads it without mu.
	refs  []atomic.Uint32
	costs *sim.Costs

	shards [allocShards]allocShard
}

// New creates an allocator over [start, start+size) with the given block
// size. size is truncated to a whole number of blocks.
func New(start, size, blockSize int64, costs *sim.Costs) *Allocator {
	if blockSize <= 0 || start < 0 || size < blockSize {
		panic(fmt.Sprintf("alloc: bad region start=%d size=%d bs=%d", start, size, blockSize))
	}
	n := size / blockSize
	a := &Allocator{
		start:     start,
		blockSize: blockSize,
		nblocks:   n,
		bitmap:    make([]uint64, (n+63)/64),
		refs:      make([]atomic.Uint32, n),
		costs:     costs,
	}
	a.free.Store(n)
	return a
}

// BlockSize returns the allocation unit in bytes.
func (a *Allocator) BlockSize() int64 { return a.blockSize }

// FreeBlocks returns the number of unallocated blocks.
func (a *Allocator) FreeBlocks() int64 {
	return a.free.Load()
}

// Alloc allocates one block and returns its device offset.
func (a *Allocator) Alloc(ctx *sim.Ctx) (int64, error) {
	return a.AllocContig(ctx, 1)
}

// AllocContig allocates n contiguous blocks and returns the device offset of
// the first. Multi-block requests use a next-fit scan from the last
// allocation point under the global lock; single-block requests — the leaf
// shadow-log hot path — come from the caller's worker shard, refilled in
// batches so the global lock's virtual-time section is paid once per
// refillBatch blocks instead of once per op.
func (a *Allocator) AllocContig(ctx *sim.Ctx, n int64) (int64, error) {
	if n <= 0 {
		return 0, fmt.Errorf("alloc: bad count %d", n)
	}
	if n == 1 {
		return a.allocSingle(ctx)
	}
	a.mu.Lock(ctx)
	defer a.mu.Unlock(ctx)
	ctx.Advance(a.costs.BlockAlloc)
	if a.free.Load() < n {
		return 0, ErrNoSpace
	}
	if b, ok := a.scan(a.hint, a.nblocks, n); ok {
		return a.take(b, n), nil
	}
	if b, ok := a.scan(0, a.hint, n); ok {
		return a.take(b, n), nil
	}
	return 0, ErrNoSpace
}

// allocSingle pops the worker's shard cache, refilling it from the global
// bitmap when empty. Cached blocks are already allocated (bitmap bit set,
// refcount 1), so a hit costs one real mutex — never contended across
// workers that hash to different shards — plus the Atomic model cost.
func (a *Allocator) allocSingle(ctx *sim.Ctx) (int64, error) {
	s := &a.shards[sim.WorkerHash(ctx.ID)&(allocShards-1)]
	s.mu.Lock()
	if k := len(s.free); k > 0 {
		off := s.free[k-1]
		s.free = s.free[:k-1]
		s.mu.Unlock()
		ctx.Advance(a.costs.Atomic)
		return off, nil
	}
	s.mu.Unlock()

	blocks, err := a.allocSingles(ctx, refillBatch)
	if err != nil {
		// The global pool may be empty only because other shards are
		// hoarding; pull their caches back and retry once. Lock order is
		// safe: Drain takes shard locks with a.mu released, like this path.
		if errors.Is(err, ErrNoSpace) && a.Drain(ctx) > 0 {
			blocks, err = a.allocSingles(ctx, 1)
		}
		if err != nil {
			return 0, err
		}
	}
	if len(blocks) > 1 {
		s.mu.Lock()
		s.free = append(s.free, blocks[1:]...)
		s.mu.Unlock()
	}
	return blocks[0], nil
}

// allocSingles takes up to want single blocks from the global bitmap under
// one lock section and one BlockAlloc charge. Under space pressure it
// degrades to taking one block so a batch refill cannot starve other
// workers on a nearly full device.
func (a *Allocator) allocSingles(ctx *sim.Ctx, want int64) ([]int64, error) {
	a.mu.Lock(ctx)
	defer a.mu.Unlock(ctx)
	ctx.Advance(a.costs.BlockAlloc)
	if a.free.Load() < want*2 {
		want = 1
	}
	var out []int64
	for int64(len(out)) < want && a.free.Load() > 0 {
		b, ok := a.scan(a.hint, a.nblocks, 1)
		if !ok {
			b, ok = a.scan(0, a.hint, 1)
		}
		if !ok {
			break
		}
		out = append(out, a.take(b, 1))
	}
	if len(out) == 0 {
		return nil, ErrNoSpace
	}
	return out, nil
}

// Drain returns every shard-cached block to the global pool and reports how
// many blocks it released. Offline audits (fsck's leak check walks the
// trees against the bitmap) and space-pressure recovery call it; cached
// blocks are allocated-but-unreferenced by design and would otherwise read
// as leaks or phantom usage.
func (a *Allocator) Drain(ctx *sim.Ctx) int {
	var cached []int64
	for i := range a.shards {
		s := &a.shards[i]
		s.mu.Lock()
		cached = append(cached, s.free...)
		s.free = s.free[:0]
		s.mu.Unlock()
	}
	if len(cached) == 0 {
		return 0
	}
	a.mu.Lock(ctx)
	defer a.mu.Unlock(ctx)
	for _, off := range cached {
		a.unref(a.blockOf(off), off)
	}
	return len(cached)
}

// Cached reports how many blocks are parked in per-worker shard caches:
// set in the bitmap but logically free. Footprint metrics (the core layer's
// live log-block count) subtract it so cache residue never reads as usage.
func (a *Allocator) Cached() int64 {
	var n int64
	for i := range a.shards {
		s := &a.shards[i]
		s.mu.Lock()
		n += int64(len(s.free))
		s.mu.Unlock()
	}
	return n
}

// scan searches [lo, hi) for n consecutive free blocks.
func (a *Allocator) scan(lo, hi, n int64) (int64, bool) {
	run := int64(0)
	runStart := int64(0)
	for b := lo; b < hi; {
		w := a.bitmap[b/64]
		if w == ^uint64(0) && b%64 == 0 && b+64 <= hi {
			run = 0
			b += 64
			continue
		}
		if a.test(b) {
			run = 0
		} else {
			if run == 0 {
				runStart = b
			}
			run++
			if run == n {
				return runStart, true
			}
		}
		b++
		// Fast-skip fully-allocated words when not in a run.
		if run == 0 && b%64 == 0 {
			for b+64 <= hi && a.bitmap[b/64] == ^uint64(0) {
				b += 64
			}
		}
	}
	return 0, false
}

func (a *Allocator) take(b, n int64) int64 {
	for i := b; i < b+n; i++ {
		a.set(i)
		a.refs[i].Store(1)
	}
	a.free.Add(-n)
	a.hint = b + n
	if a.hint >= a.nblocks {
		a.hint = 0
	}
	return a.start + b*a.blockSize
}

// Free drops one reference on each of the n blocks starting at device offset
// off, releasing a block when its count reaches zero. Freeing an unallocated
// block (a double free / refcount underflow) panics: it means a caller lost
// track of block ownership, which on real hardware would hand the same NVM
// block to two files.
func (a *Allocator) Free(ctx *sim.Ctx, off int64, n int64) {
	b := a.blockOf(off)
	a.mu.Lock(ctx)
	defer a.mu.Unlock(ctx)
	for i := b; i < b+n; i++ {
		a.unref(i, off)
	}
}

// unref drops one reference on block i; callers hold a.mu. off is the caller's
// extent offset, for the panic message only.
func (a *Allocator) unref(i, off int64) {
	if !a.test(i) || a.refs[i].Load() == 0 {
		panic(fmt.Sprintf("alloc: double free of block %d (off %d)", i, off))
	}
	if a.refs[i].Add(^uint32(0)) == 0 {
		a.clear(i)
		a.free.Add(1)
	}
}

// Ref takes one additional reference on each of the n blocks starting at off
// (snapshot pinning). The blocks must be allocated.
func (a *Allocator) Ref(ctx *sim.Ctx, off, n int64) {
	b := a.blockOf(off)
	a.mu.Lock(ctx)
	defer a.mu.Unlock(ctx)
	for i := b; i < b+n; i++ {
		if !a.test(i) {
			panic(fmt.Sprintf("alloc: ref of unallocated block %d (off %d)", i, off))
		}
		if a.refs[i].Load() == maxRefs {
			panic(fmt.Sprintf("alloc: refcount overflow on block %d (off %d)", i, off))
		}
		a.refs[i].Add(1)
	}
}

// maxRefs bounds a block's reference count.
const maxRefs = 1<<16 - 1

// RefCount returns the reference count of the block containing off (0 when
// free). Racy by nature; exact only under the caller's own synchronization.
func (a *Allocator) RefCount(off int64) int {
	return int(a.refs[a.blockOf(off)].Load())
}

// Extent names one contiguous run of blocks for batch release: the device
// offset of the first block and the block count.
type Extent struct {
	Off int64
	N   int64
}

// FreeBulk releases many extents under a single lock acquisition. The
// background cleaner returns an entire subtree's logs at once; freeing them
// block-run by block-run would serialize every foreground allocation behind
// the cleaner's lock traffic. Validation matches Free (double frees and
// refcount underflows panic).
func (a *Allocator) FreeBulk(ctx *sim.Ctx, exts []Extent) {
	if len(exts) == 0 {
		return
	}
	a.mu.Lock(ctx)
	defer a.mu.Unlock(ctx)
	for _, e := range exts {
		b := a.blockOf(e.Off)
		for i := b; i < b+e.N; i++ {
			a.unref(i, e.Off)
		}
	}
}

// MarkAllocated records blocks as in use without charging time; recovery
// scans use it to rebuild DRAM state from persistent metadata. Marking an
// already-allocated block is an error (it indicates a recovery bug).
func (a *Allocator) MarkAllocated(off, n int64) error {
	b := a.blockOf(off)
	for i := b; i < b+n; i++ {
		if a.test(i) {
			return fmt.Errorf("alloc: block %d already allocated during recovery", i)
		}
		a.set(i)
		a.refs[i].Store(1)
	}
	a.free.Add(-n)
	return nil
}

// MarkRef is the recovery-scan variant of MarkAllocated for blocks that may
// legitimately be referenced by several persistent records (a live tree node
// and one or more snapshot pins): the first mark allocates the block, later
// marks bump its reference count.
func (a *Allocator) MarkRef(off, n int64) {
	b := a.blockOf(off)
	for i := b; i < b+n; i++ {
		if a.test(i) {
			a.refs[i].Add(1)
			continue
		}
		a.set(i)
		a.refs[i].Store(1)
		a.free.Add(-1)
	}
}

// Reset frees every block (between benchmark phases).
func (a *Allocator) Reset() {
	for i := range a.shards {
		s := &a.shards[i]
		s.mu.Lock()
		s.free = s.free[:0]
		s.mu.Unlock()
	}
	for i := range a.bitmap {
		a.bitmap[i] = 0
	}
	for i := range a.refs {
		a.refs[i].Store(0)
	}
	a.free.Store(a.nblocks)
	a.hint = 0
}

// Range calls fn for every allocated block (device offset, reference count)
// in address order until fn returns false. Racy against concurrent
// allocation; intended for offline audits (fsck) and reports.
func (a *Allocator) Range(fn func(off int64, refs int) bool) {
	for i := int64(0); i < a.nblocks; i++ {
		if a.test(i) {
			if !fn(a.start+i*a.blockSize, int(a.refs[i].Load())) {
				return
			}
		}
	}
}

// Allocated reports whether the block containing off is allocated.
func (a *Allocator) Allocated(off int64) bool { return a.test(a.blockOf(off)) }

// UsedBlocks returns the number of allocated blocks, cached ones included.
func (a *Allocator) UsedBlocks() int64 { return a.nblocks - a.free.Load() }

func (a *Allocator) blockOf(off int64) int64 {
	if off < a.start || (off-a.start)%a.blockSize != 0 {
		panic(fmt.Sprintf("alloc: offset %d not a block boundary (start %d bs %d)", off, a.start, a.blockSize))
	}
	b := (off - a.start) / a.blockSize
	if b >= a.nblocks {
		panic(fmt.Sprintf("alloc: offset %d beyond region", off))
	}
	return b
}

func (a *Allocator) test(b int64) bool { return a.bitmap[b/64]&(1<<uint(b%64)) != 0 }
func (a *Allocator) set(b int64)       { a.bitmap[b/64] |= 1 << uint(b%64) }
func (a *Allocator) clear(b int64)     { a.bitmap[b/64] &^= 1 << uint(b%64) }
