package core

import (
	"runtime"
	"sort"

	"mgsp/internal/sim"
)

// lockedNode records one acquired lock for release.
type lockedNode struct {
	n    *node
	mode lockMode
}

// opLocks is everything an operation acquired, released in reverse order.
type opLocks struct {
	file     bool // file-level lock held
	write    bool
	greedy   bool // holds a greedyActive reference
	acquired []lockedNode
}

// lockOp acquires isolation for an operation over segments (already in
// offset order; a node may repeat in adjacent segments): file-level lock,
// greedy single lock, or the full MGL plan (intentions on ancestors
// top-down, then R/W on targets in offset order).
func (f *file) lockOp(ctx *sim.Ctx, start *node, segs []segment, write bool) *opLocks {
	began := ctx.Now()
	ol := &opLocks{write: write}
	if f.fs.opts.Locking == LockFile {
		if write {
			f.flock.Lock(ctx)
		} else {
			f.flock.RLock(ctx)
		}
		ol.file = true
		f.fs.hMGLAcq.Observe(ctx.Now() - began)
		return ol
	}
	mode := lockR
	if write {
		mode = lockW
	}
	if f.tryGreedy(ctx) {
		// Greedy locking: one lock at the minimum-search-tree root covers
		// the whole operation (§III-C2), skipping ancestor intentions —
		// sound only while a single worker uses the file (tryGreedy).
		ol.greedy = true
		f.fs.stats.GreedyOps.Add(ctx.ID, 1)
		f.lockCoarse(ctx, start, mode, ol)
		f.fs.hMGLAcq.Observe(ctx.Now() - began)
		return ol
	}
	if f.fs.opts.GreedyLocking {
		// The greedy fast path was configured but unavailable (multi-user
		// demotion, open handles, or a busy cleaner). This is a standing
		// capacity condition, not a failed try-lock: at 2+ workers every
		// single op runs demoted, and counting it as MGLTryFails made the
		// lock fast path read as a try-fail storm (fails ~= ops in
		// BENCH_smoke) when nothing was spinning at all.
		f.fs.stats.GreedyDemotions.Add(ctx.ID, 1)
	}

	// Intentions on the union of target ancestries, root-first then by
	// offset; sticky under lazy cleaning.
	intent := lockIR
	if write {
		intent = lockIW
	}
	ancestors := ancestorsOf(segs)
	for _, a := range ancestors {
		f.acquireIntent(ctx, a, intent, ol)
	}
	for i, s := range segs {
		if i > 0 && segs[i-1].n == s.n {
			continue // several updates in one leaf: W locks are not reentrant
		}
		f.lockCoarse(ctx, s.n, mode, ol)
	}
	f.fs.hMGLAcq.Observe(ctx.Now() - began)
	return ol
}

// tryGreedy decides whether this operation may use greedy locking and, if
// so, registers it. A second worker's first op flips the file to multi-user
// and waits for in-flight greedy ops to drain, so a greedy op can never
// overlap a full-MGL op.
func (f *file) tryGreedy(ctx *sim.Ctx) bool {
	if !f.fs.opts.GreedyLocking {
		return false
	}
	me := int64(ctx.ID) + 1
	if !f.multiUser.Load() {
		last := f.lastWorker.Load()
		switch {
		case last == 0:
			f.lastWorker.Store(me)
		case last != me:
			// A second worker appeared: demote permanently and wait out any
			// in-flight greedy op before proceeding with full MGL.
			f.multiUser.Store(true)
			for f.greedyActive.Load() != 0 {
				runtime.Gosched()
			}
		}
	}
	if f.multiUser.Load() || f.refs.Load() != 1 || f.cleanerBusy.Load() != 0 {
		return false
	}
	f.greedyActive.Add(1)
	if f.multiUser.Load() || f.cleanerBusy.Load() != 0 {
		// Same drain protocol as multi-user demotion: the cleaner sets
		// cleanerBusy then waits for greedyActive to reach zero, so this
		// re-check after publishing our greedy claim closes the race.
		f.greedyActive.Add(-1)
		return false
	}
	return true
}

// ancestorsOf returns the deduplicated ancestors of all segment nodes,
// ordered top-down (larger spans first) then by offset.
func ancestorsOf(segs []segment) []*node {
	seen := make(map[*node]bool)
	var out []*node
	for _, s := range segs {
		for a := s.n.parent; a != nil; a = a.parent {
			if seen[a] {
				break // higher ancestors already collected
			}
			seen[a] = true
			out = append(out, a)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].span != out[j].span {
			return out[i].span > out[j].span
		}
		return out[i].offset() < out[j].offset()
	})
	return out
}

// acquireIntent takes an intention lock on an ancestor. Under lazy cleaning
// the lock is sticky: it stays held across operations (released at file
// close), so repeat accesses to the same path skip the acquisition entirely.
func (f *file) acquireIntent(ctx *sim.Ctx, a *node, mode lockMode, ol *opLocks) {
	if !f.fs.opts.LazyIntentionCleaning {
		a.lock.Lock(ctx, mode)
		ol.acquired = append(ol.acquired, lockedNode{a, mode})
		return
	}
	sh := f.intentShard(ctx.ID)
	sh.mu.Lock()
	m := sh.m[ctx.ID]
	if m == nil {
		m = make(map[*node]*workerIntent)
		sh.m[ctx.ID] = m
	}
	wi := m[a]
	if wi == nil {
		wi = &workerIntent{}
		m[a] = wi
	}
	have := (mode == lockIR && wi.ir) || (mode == lockIW && wi.iw)
	if !have {
		// Mark intent before unlocking the map so a concurrent release
		// (close) sees it; acquisition itself can block, so drop the map
		// lock first.
		if mode == lockIR {
			wi.ir = true
		} else {
			wi.iw = true
		}
	}
	sh.mu.Unlock()
	if !have {
		a.lock.Lock(ctx, mode)
	}
}

// dropStickyIntent releases this worker's sticky intention on n (needed
// before W/R-locking n itself, or the worker would self-conflict).
func (f *file) dropStickyIntent(ctx *sim.Ctx, n *node) {
	if !f.fs.opts.LazyIntentionCleaning {
		return
	}
	sh := f.intentShard(ctx.ID)
	sh.mu.Lock()
	m := sh.m[ctx.ID]
	var wi *workerIntent
	if m != nil {
		wi = m[n]
	}
	if wi != nil {
		delete(m, n)
	}
	sh.mu.Unlock()
	if wi != nil {
		f.fs.stats.MGLIntentDrops.Add(1)
		if wi.ir {
			n.lock.Unlock(ctx, lockIR)
		}
		if wi.iw {
			n.lock.Unlock(ctx, lockIW)
		}
	}
}

// lockCoarse acquires R/W on n. Under lazy cleaning, a conflict caused only
// by (sticky) intention locks makes it descend: it takes an op-scoped
// intention on n, materializes all children, and locks them instead —
// recursion bottoms out at real R/W locks or leaves.
func (f *file) lockCoarse(ctx *sim.Ctx, n *node, mode lockMode, ol *opLocks) {
	f.dropStickyIntent(ctx, n)
	if !f.fs.opts.LazyIntentionCleaning {
		n.lock.Lock(ctx, mode)
		ol.acquired = append(ol.acquired, lockedNode{n, mode})
		return
	}
	if n.lock.LockLazy(ctx, mode) {
		ol.acquired = append(ol.acquired, lockedNode{n, mode})
		return
	}
	if n.leaf {
		// Leaves never carry intentions; LockLazy cannot report descent.
		panic("core: intention conflict on a leaf")
	}
	f.fs.stats.Descends.Add(ctx.ID, 1)
	intent := lockIR
	if mode == lockW {
		intent = lockIW
	}
	n.lock.Lock(ctx, intent) // op-scoped marker so coarser lockers conflict
	ol.acquired = append(ol.acquired, lockedNode{n, intent})
	for i := int64(0); i < int64(f.fs.opts.Degree); i++ {
		c := f.ensureChild(ctx, n, i)
		f.lockCoarse(ctx, c, mode, ol)
	}
}

// release drops everything in reverse acquisition order.
func (f *file) release(ctx *sim.Ctx, ol *opLocks) {
	if ol.file {
		if ol.write {
			f.flock.Unlock(ctx)
		} else {
			f.flock.RUnlock(ctx)
		}
		return
	}
	for i := len(ol.acquired) - 1; i >= 0; i-- {
		ln := ol.acquired[i]
		ln.n.lock.Unlock(ctx, ln.mode)
	}
	if ol.greedy {
		f.greedyActive.Add(-1)
	}
}
