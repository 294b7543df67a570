package core

// Background cleaning (see internal/cleaner and DESIGN.md §7): incremental,
// resumable write-back of cold shadow subtrees under MGL try-locks, bulk log
// reclamation, and the checkpoint protocol that lets Mount skip both the
// full directory scan and pre-checkpoint metadata replay. The paper has no
// online cleaner; everything here is off (and bit-identical to the paper
// protocol) unless Options.CleanerInterval is set.

import (
	"runtime"
	"sort"

	"mgsp/internal/alloc"
	"mgsp/internal/cleaner"
	"mgsp/internal/nvm"
	"mgsp/internal/obs"
	"mgsp/internal/pmfile"
	"mgsp/internal/sim"
)

// Cleaner returns the background cleaner, or nil when disabled.
func (fs *FS) Cleaner() *cleaner.Cleaner { return fs.cleaner }

// LogBlocks returns the 4 KiB device blocks currently held by shadow logs:
// allocator usage minus the blocks backing the files themselves and minus
// blocks parked in per-worker allocation caches (set in the bitmap but
// logically free). This is the quantity the cleaner bounds on
// sustained-overwrite workloads, and the high-water signal the server's
// admission control throttles on. Safe from any goroutine — including
// concurrently with Create (the old Files() iteration was not).
func (fs *FS) LogBlocks() int64 {
	a := fs.prov.Alloc()
	return a.UsedBlocks() - a.Cached() - fs.prov.BackingPages()
}

// opExit leaves an operation's in-flight window and donates this goroutine
// to the cleaner when its interval has elapsed (cooperative scheduling: the
// simulation has no free-running background threads, so foreground workers
// host the passes; the work is charged to the cleaner's private context).
// Registered as a defer before the lock-release defer, so (LIFO) the pass
// never starts while the operation still holds node locks.
func (fs *FS) opExit(ctx *sim.Ctx) {
	fs.inFlight.Add(-1)
	if fs.cleaner != nil {
		fs.cleaner.MaybeRun(ctx.Now())
	}
}

// touchNode stamps n and its ancestors with the current cleaner generation
// so the cleaner treats the path as hot. The walk stops at the first
// ancestor already stamped (everything above it is at least as fresh).
// No-op while the cleaner is disabled.
func (f *file) touchNode(n *node) {
	if f.fs.cleaner == nil {
		return
	}
	gen := f.fs.cleanGen.Load()
	for a := n; a != nil; a = a.parent {
		if a.touch.Swap(gen) >= gen {
			break
		}
	}
}

// CleanPass implements cleaner.Target: one incremental sweep over the open
// files (sorted by name, resuming at the previous pass's cursor), writing
// cold shadow subtrees back and reclaiming their logs. budget caps the
// blocks reclaimed (0 = unbounded). Only one pass runs at a time (enforced
// by the cleaner's running flag), so the cursor fields need no lock.
func (fs *FS) CleanPass(ctx *sim.Ctx, budget int64) cleaner.PassResult {
	var res cleaner.PassResult
	began := ctx.Now()
	gen := fs.cleanGen.Add(1)
	remaining := budget
	if remaining <= 0 {
		remaining = 1 << 62
	}

	fs.mu.Lock(ctx)
	names := make([]string, 0, len(fs.files))
	for name := range fs.files {
		names = append(names, name)
	}
	fs.mu.Unlock(ctx)
	sort.Strings(names)
	start := 0
	for i, name := range names {
		if name >= fs.cleanName {
			start = i
			break
		}
	}
	rot := append(names[start:], names[:start]...)

	wrapped := true
	for _, name := range rot {
		fs.mu.Lock(ctx)
		f := fs.files[name]
		if f != nil {
			f.refs.Add(1) // pin against concurrent close/remove
		}
		fs.mu.Unlock(ctx)
		if f == nil {
			continue
		}
		startOff := int64(0)
		if name == fs.cleanName {
			startOff = fs.cleanOff
		}
		done, resumeOff := f.cleanFile(ctx, gen, startOff, &remaining, &res)
		fs.unrefCleaned(ctx, f)
		if !done {
			fs.cleanName = name
			fs.cleanOff = resumeOff
			wrapped = false
			break
		}
	}
	if wrapped {
		fs.cleanName = ""
		fs.cleanOff = 0
	}
	res.Wrapped = wrapped
	res.LogBlocksAfter = fs.LogBlocks()
	fs.stats.CleanerPasses.Add(1)
	fs.stats.BlocksReclaimed.Add(res.BlocksReclaimed)
	dur := ctx.Now() - began
	fs.hCleanPass.Observe(dur)
	fs.trace.Record(ctx.ID, obs.OpCleanerPass, 0, 0, res.BlocksReclaimed, dur)
	return res
}

// unrefCleaned drops the cleaner's pin on f, running the usual
// last-reference work if every handle closed during the pass.
func (fs *FS) unrefCleaned(ctx *sim.Ctx, f *file) {
	fs.mu.Lock(ctx)
	defer fs.mu.Unlock(ctx)
	if f.refs.Add(-1) == 0 {
		f.lastRefGone(ctx)
	}
}

// cleanFile sweeps one file's tree from startOff. done=false with a resume
// offset means the budget ran out mid-file.
func (f *file) cleanFile(ctx *sim.Ctx, gen, startOff int64, remaining *int64, res *cleaner.PassResult) (bool, int64) {
	if f.root.Load() == nil {
		return true, 0
	}
	if f.maxLiveSnap.Load() != 0 {
		// Live snapshots freeze the fallback and pin log blocks; write-back
		// and reclamation would tear the frozen views. Skip the whole file —
		// its logs are reclaimed once the last snapshot is dropped.
		return true, 0
	}
	// Suspend greedy locking while the cleaner works on this tree: a greedy
	// op takes one covering lock and skips ancestors, which would bypass the
	// subtree try-locks below. Same drain protocol as multi-user demotion.
	f.cleanerBusy.Add(1)
	defer f.cleanerBusy.Add(-1)
	for f.greedyActive.Load() != 0 {
		runtime.Gosched()
	}
	// The cleaner's merge/reclaim writes run under subtree try-locks, but
	// optimistic readers take none — drain them for the sweep, like any
	// other mutating section.
	f.writerEnter()
	defer f.writerExit()
	// In LockFile mode the exclusive file lock stands in for all subtree
	// locks. Taken before sizeMu to match WriteAt's flock -> sizeMu order
	// (size publish happens under the op's file lock).
	if f.fs.opts.Locking == LockFile {
		f.flock.Lock(ctx)
		defer f.flock.Unlock(ctx)
	}
	// sizeMu excludes truncate and create-over-existing, which discard the
	// tree wholesale, for the duration of the walk.
	f.sizeMu.Lock(ctx)
	defer f.sizeMu.Unlock(ctx)
	root := f.root.Load()
	if root == nil {
		return true, 0
	}
	return f.cleanWalk(ctx, root, gen, startOff, remaining, res)
}

// cleanWalk descends the tree looking for cold subtrees: children whose
// touch stamp is at least two generations old (a full interval of grace).
// Hot interiors are recursed into, so a cold corner of a hot file is still
// found.
func (f *file) cleanWalk(ctx *sim.Ctx, n *node, gen, startOff int64, remaining *int64, res *cleaner.PassResult) (bool, int64) {
	ctx.Advance(f.fs.costs.IndexStep)
	if n.leaf {
		return true, 0
	}
	cs := n.childSpan(f.fs.opts.Degree)
	ci := int64(0)
	if startOff > n.offset() {
		ci = (startOff - n.offset()) / cs
	}
	for ; ci < int64(f.fs.opts.Degree); ci++ {
		c := n.children[ci].Load()
		if c == nil {
			continue
		}
		if *remaining <= 0 {
			return false, c.offset()
		}
		if c.touch.Load()+1 < gen {
			f.cleanSubtree(ctx, c, remaining, res)
			continue
		}
		if !c.leaf {
			childStart := startOff
			if childStart < c.offset() {
				childStart = c.offset()
			}
			if done, resume := f.cleanWalk(ctx, c, gen, childStart, remaining, res); !done {
				return false, resume
			}
		}
	}
	return true, 0
}

// cleanSubtree write-locks the cold subtree at c (plus IW on its ancestors,
// root-first, all try-locks — any conflict means a foreground op is active
// there and the cleaner backs off), preserves the live content, and reclaims
// every log and record below. Where the content goes depends on the
// ancestors, mirroring the read path's resolution order:
//
//   - an ancestor with its existing bit clear cuts reads off above c, so the
//     whole subtree is superseded garbage: reclaim with no write-back;
//   - otherwise, with a valid ancestor fb, reads of c's span fall back to
//     fb's log — not the file — once c's bits are gone, so c's newer units
//     are merged into fb's log in place (crash-safe: every byte the merge
//     overwrites in fb's log is shadowed by a still-persisted valid bit in
//     c's subtree until the records below c are cleared after the fence);
//   - with no valid ancestor the fallback is the file itself and the close
//     path's write-back applies.
func (f *file) cleanSubtree(ctx *sim.Ctx, c *node, remaining *int64, res *cleaner.PassResult) {
	var held []lockedNode
	if f.fs.opts.Locking == LockMGL {
		var anc []*node
		for a := c.parent; a != nil; a = a.parent {
			anc = append(anc, a)
		}
		for i, j := 0, len(anc)-1; i < j; i, j = i+1, j-1 {
			anc[i], anc[j] = anc[j], anc[i]
		}
		for _, a := range anc {
			if !a.lock.TryLock(ctx, lockIW) {
				f.releaseLocked(ctx, held)
				f.fs.stats.MGLTryFails.Add(1)
				res.Contended++
				return
			}
			held = append(held, lockedNode{a, lockIW})
		}
		if !f.tryLockSubtreeW(ctx, c, &held) {
			f.releaseLocked(ctx, held)
			f.fs.stats.MGLTryFails.Add(1)
			res.Contended++
			return
		}
	}
	defer f.releaseLocked(ctx, held)

	cut := false
	var fb *node // deepest valid ancestor = the fallback target
	for a := c.parent; a != nil; a = a.parent {
		if a.word.Load()&bitExisting == 0 {
			cut = true
			break
		}
		if fb == nil && a.valid() {
			fb = a
		}
	}
	switch {
	case cut:
		// Unreachable by reads: garbage, no write-back.
	case fb != nil:
		f.wbMerge(ctx, c, c.offset(), c.offset()+c.span, nil, fb)
		f.fs.dev.Fence(ctx)
	default:
		f.wbWalk(ctx, c, c.offset(), c.offset()+c.span, nil)
		f.fs.dev.Fence(ctx)
	}
	freed := f.reclaimSubtree(ctx, c)
	if freed > 0 {
		*remaining -= freed
		res.BlocksReclaimed += freed
		res.SubtreesCleaned++
	}
}

// wbMerge copies the units of [lo,hi) whose source of truth lies inside c's
// subtree (lastValid tracks valid interiors below c, like wbWalk) into dst's
// log; units already served by dst need no copy.
func (f *file) wbMerge(ctx *sim.Ctx, n *node, lo, hi int64, lastValid, dst *node) {
	size := f.size.Load()
	if lo >= size {
		return
	}
	if hi > size {
		hi = size
	}
	if n.leaf {
		unit := int64(LeafSpan / f.subBits())
		word := n.word.Load()
		off := n.offset()
		for cur := lo; cur < hi; {
			u := (cur - off) / unit
			uEnd := off + (u+1)*unit
			if uEnd > hi {
				uEnd = hi
			}
			if word&(1<<uint(u)) != 0 {
				f.copyToLog(ctx, n, cur, uEnd, dst)
			} else if lastValid != nil {
				f.copyToLog(ctx, lastValid, cur, uEnd, dst)
			}
			cur = uEnd
		}
		return
	}
	if n.word.Load()&bitValid != 0 {
		lastValid = n
	}
	if n.word.Load()&bitExisting == 0 {
		if lastValid != nil {
			f.copyToLog(ctx, lastValid, lo, hi, dst)
		}
		return
	}
	cs := n.childSpan(f.fs.opts.Degree)
	for cur := lo; cur < hi; {
		ci := (cur - n.offset()) / cs
		cEnd := n.offset() + (ci+1)*cs
		if cEnd > hi {
			cEnd = hi
		}
		if c := n.children[ci].Load(); c != nil {
			f.wbMerge(ctx, c, cur, cEnd, lastValid, dst)
		} else if lastValid != nil {
			f.copyToLog(ctx, lastValid, cur, cEnd, dst)
		}
		cur = cEnd
	}
}

// copyToLog moves [lo,hi) from src's log into dst's log in bounded chunks.
func (f *file) copyToLog(ctx *sim.Ctx, src *node, lo, hi int64, dst *node) {
	buf := make([]byte, wbChunk)
	for lo < hi {
		n := int64(wbChunk)
		if n > hi-lo {
			n = hi - lo
		}
		f.fs.dev.Read(ctx, buf[:n], src.logOff+(lo-src.offset()))
		f.fs.dev.WriteNT(ctx, buf[:n], dst.logOff+(lo-dst.offset()))
		lo += n
	}
}

// tryLockSubtreeW write-locks every node of the subtree rooted at n. Sticky
// intentions left by lazy cleaning are not real users: on an intent-only
// conflict it takes IW on n and descends to the children, materializing
// absent ones so no unlocked path into the subtree remains (the try-lock
// analogue of lockCoarse's descent).
func (f *file) tryLockSubtreeW(ctx *sim.Ctx, n *node, held *[]lockedNode) bool {
	ok, intentOnly := n.lock.TryLockHint(ctx, lockW)
	if ok {
		*held = append(*held, lockedNode{n, lockW})
		return true
	}
	if !intentOnly || n.leaf {
		return false
	}
	if !n.lock.TryLock(ctx, lockIW) {
		return false
	}
	*held = append(*held, lockedNode{n, lockIW})
	for i := int64(0); i < int64(f.fs.opts.Degree); i++ {
		c := f.ensureChild(ctx, n, i)
		if !f.tryLockSubtreeW(ctx, c, held) {
			return false
		}
	}
	return true
}

// releaseLocked drops try-locked nodes in reverse acquisition order.
func (f *file) releaseLocked(ctx *sim.Ctx, held []lockedNode) {
	for i := len(held) - 1; i >= 0; i-- {
		held[i].n.lock.Unlock(ctx, held[i].mode)
	}
}

// reclaimSubtree retires every record and frees every log at and below n:
// records are cleared and volatile words zeroed bottom-up, then one fence,
// then the blocks return to the allocator in bulk — so a crash mid-reclaim
// never leaves a live record pointing at a reusable log block. Returns the
// freed block count.
func (f *file) reclaimSubtree(ctx *sim.Ctx, n *node) int64 {
	var exts []alloc.Extent
	f.gatherReclaim(ctx, n, &exts)
	if len(exts) == 0 {
		return 0
	}
	f.fs.dev.Fence(ctx)
	var blocks int64
	for _, e := range exts {
		blocks += e.N
	}
	f.fs.prov.Alloc().FreeBulk(ctx, exts)
	return blocks
}

func (f *file) gatherReclaim(ctx *sim.Ctx, n *node, exts *[]alloc.Extent) {
	for i := range n.children {
		if c := n.children[i].Load(); c != nil {
			f.gatherReclaim(ctx, c, exts)
		}
	}
	if n.recIdx >= 0 {
		f.fs.dir.clear(ctx, n.recIdx)
		n.recIdx = -1
	}
	if n.logOff != 0 {
		*exts = append(*exts, alloc.Extent{Off: n.logOff, N: n.span / LeafSpan})
		n.logOff = 0
	}
	n.word.Store(0)
	n.stale.Store(false)
}

// quiesceSpins bounds the checkpoint quiesce; with cooperative scheduling
// every in-flight operation is actively running on its own goroutine, so
// the window is microscopic and the bound exists only as a safety valve.
const quiesceSpins = 10000

// Checkpoint implements cleaner.Target: bump the epoch, drain in-flight
// operations (any op that read the old epoch has retired its metadata-log
// entry by the time inFlight reaches zero — it increments inFlight before
// reading the epoch), then persist the checkpoint cell. A false return
// abandons the attempt; the stray epoch bump is harmless, since entries
// stamped with the newer epoch simply replay.
func (fs *FS) Checkpoint(ctx *sim.Ctx) bool {
	e := fs.epoch.Add(1)
	for i := 0; fs.inFlight.Load() != 0; i++ {
		if i >= quiesceSpins {
			return false
		}
		runtime.Gosched()
	}
	writeCheckpointCell(ctx, fs.dev, fs.ckptOff, checkpoint{
		epoch:     e,
		passes:    uint64(fs.stats.CleanerPasses.Load()),
		reclaimed: uint64(fs.stats.BlocksReclaimed.Load()),
	})
	fs.stats.CheckpointsTaken.Add(1)
	fs.trace.Record(ctx.ID, obs.OpCheckpoint, 0, 0, int64(e), 0)
	return true
}

// DropCheckpoint erases the checkpoint header on a device image (keeping
// the directory high-water mark, which stays valid on its own), forcing the
// next Mount down the full-replay path. Crash tests use it to assert that
// recovery with and without the checkpoint reaches identical contents.
func DropCheckpoint(ctx *sim.Ctx, dev *nvm.Device) {
	off := pmfile.MetaStart() + int64(metaLogEntries)*entrySize
	for _, o := range []int64{ckptEpoch, ckptPasses, ckptReclaimed, ckptCksum} {
		dev.Store8(ctx, off+o, 0)
	}
	dev.Fence(ctx)
}
