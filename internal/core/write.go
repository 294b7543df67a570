package core

import (
	"fmt"

	"mgsp/internal/obs"
	"mgsp/internal/sim"
)

// dataWrite is one pending shadow-log store: data to be written at absolute
// file offset abs into dst's private log, or into the file itself when dst
// is nil (the root log is the file's memory map). logOff, when nonzero,
// overrides the destination with an explicit device offset — a copy-on-write
// relocation target that only becomes dst's log at commit time.
type dataWrite struct {
	dst    *node
	abs    int64
	data   []byte
	logOff int64
}

// wordChange is a planned bitmap transition for one node, becoming a
// metadata-log slot at commit time. newLogOff, when nonzero, additionally
// swaps the node's private log to a freshly allocated block (snapshot
// copy-on-write); oldLogOff is the block whose live reference is released
// after the swap commits.
type wordChange struct {
	n         *node
	old, new  uint64
	markStale bool
	newLogOff int64
	oldLogOff int64
}

// WriteAt implements vfs.File: one failure-atomic MGSP write (§III-D).
func (h *handle) WriteAt(ctx *sim.Ctx, p []byte, off int64) (int, error) {
	if err := h.guard(); err != nil {
		return 0, err
	}
	if off < 0 {
		return 0, fmt.Errorf("core: negative offset %d", off)
	}
	if len(p) == 0 {
		return 0, nil
	}
	f := h.f
	fs := f.fs
	fs.stats.Writes.Add(ctx.ID, 1)
	fs.stats.UserWriteBytes.Add(ctx.ID, int64(len(p)))
	began := ctx.Now()
	// Enter the in-flight window (checkpoint quiesce) first; the deferred
	// exit runs after the lock release below (LIFO), so the cleaner's
	// piggyback pass never starts while this op holds node locks.
	fs.inFlight.Add(1)
	defer fs.opExit(ctx)
	// Drain optimistic readers before mutating anything they might copy.
	f.writerEnter()
	defer f.writerExit()
	end := off + int64(len(p))

	// Make room: file capacity (underlying fallocate+mmap) and tree height.
	if err := f.pf.EnsureCapacity(ctx, end); err != nil {
		return 0, err
	}
	f.ensureTree(ctx, f.pf.Capacity())

	// Claim a private metadata log entry (lock-free, §III-C1).
	entry := fs.mlog.claim(ctx, ctx.ID)

	// Locate targets (Algorithm 1's traversal) and lock (§III-C2).
	start := f.searchStart(ctx, off, end)
	segs := f.cover(ctx, start, off, end, nil)
	locks := f.lockOp(ctx, start, segs, true)
	defer f.release(ctx, locks)

	// Set existing bits down the paths, cleaning lazily-invalidated
	// descendants on the way (§III-B2).
	f.setExistingPath(ctx, ancestorsOf(segs))

	// Plan: per-target shadow-log destination, data writes, word changes.
	var writes []dataWrite
	var changes []wordChange
	for _, s := range segs {
		if s.n.leaf {
			var err error
			writes, changes, err = f.planLeaf(ctx, s, p[s.lo-off:s.hi-off], writes, changes)
			if err != nil {
				return 0, err
			}
		} else {
			w, c, err := f.planInterior(ctx, s, p[s.lo-off:s.hi-off])
			if err != nil {
				return 0, err
			}
			writes = append(writes, w)
			changes = append(changes, c)
		}
	}

	// Shadow-data phase: every store lands in a location that is not the
	// current source of truth, so nothing is visible until commit.
	for _, w := range writes {
		f.writeTo(ctx, w)
	}
	fs.dev.Fence(ctx)

	// Commit: persist the metadata log entry (chained if >10 slots), then
	// apply the bitmap words.
	newSize := f.size.Load()
	if end > newSize {
		newSize = end
	}
	f.commitChanges(ctx, entry, off, int64(len(p)), newSize, changes)

	// Publish the new size (also recorded in the entry for recovery).
	// Deferred unlock: SetSize persists the size word (a media op), and a
	// crash-injection panic there must not leak sizeMu to other workers.
	if end > f.size.Load() {
		func() {
			f.sizeMu.Lock(ctx)
			defer f.sizeMu.Unlock(ctx)
			if end > f.size.Load() {
				f.size.Store(end)
				f.pf.SetSize(ctx, end)
			}
		}()
	}

	fs.mlog.retire(ctx, entry)
	if fs.pcache != nil {
		// Committed: bring overlapping frames up to date while the W locks
		// still exclude readers (release is deferred).
		f.patchFrames(p, off)
	}
	f.updateMinSearch(off, end)
	dur := ctx.Now() - began
	fs.hWrite.Observe(dur)
	fs.trace.Record(ctx.ID, obs.OpWrite, f.pf.Slot(), off, int64(len(p)), dur)
	return len(p), nil
}

// commitChanges writes the metadata-log entry chain and applies the words.
func (f *file) commitChanges(ctx *sim.Ctx, entry int, off, length, newSize int64, changes []wordChange) {
	fs := f.fs
	for _, c := range changes {
		if c.newLogOff != 0 {
			f.commitChangesSnap(ctx, entry, off, length, newSize, changes)
			return
		}
	}
	slots := make([]bitmapSlot, len(changes))
	for i, c := range changes {
		if c.n.recIdx < 0 {
			panic("core: committing a node without a record")
		}
		slots[i] = bitmapSlot{recIdx: c.n.recIdx, old: uint16(c.old), new: uint16(c.new)}
	}
	chainLen := (len(slots) + entrySlots - 1) / entrySlots
	if chainLen == 0 {
		chainLen = 1
	}
	group := fs.opSeq.Add(1)
	// Stamp the current cleaner epoch (0 forever while the cleaner is off).
	// Read inside the in-flight window: the checkpoint quiesce waits for this
	// op to retire, so an entry can never carry an epoch older than a
	// checkpoint that excludes it.
	epoch := uint8(fs.epoch.Load())
	extra := make([]int, 0, chainLen-1)
	for i := 1; i < chainLen; i++ {
		e := fs.mlog.claim(ctx, ctx.ID+i)
		extra = append(extra, e)
		lo := i * entrySlots
		hi := lo + entrySlots
		if hi > len(slots) {
			hi = len(slots)
		}
		fs.mlog.commit(ctx, e, f.pf.Slot(), off, length, newSize, slots[lo:hi], group, i, chainLen, epoch)
	}
	first := slots
	if len(first) > entrySlots {
		first = first[:entrySlots]
	}
	// The first entry persists last: it completes the chain, making it the
	// commit point.
	fs.mlog.commit(ctx, entry, f.pf.Slot(), off, length, newSize, first, group, 0, chainLen, epoch)
	fs.stats.MetaEntries.Add(ctx.ID, int64(chainLen))

	for _, c := range changes {
		c.n.word.Store(c.new)
		fs.dir.setWord(ctx, c.n.recIdx, c.new)
		if c.markStale {
			c.n.stale.Store(true)
		}
	}
	for _, e := range extra {
		fs.mlog.retire(ctx, e)
	}
}

// commitChangesSnap commits an operation that includes copy-on-write log
// swaps, using the wide entKindOpSnap format: each node contributes a word
// slot, plus a log-swap slot when its private log was relocated, and the
// chain commits atomically (first entry last). After the commit point the
// swaps are applied (record logOff updated, node repointed) and the old
// blocks' live references released — snapshot pins keep them alive for as
// long as any frozen view still reads them.
func (f *file) commitChangesSnap(ctx *sim.Ctx, entry int, off, length, newSize int64, changes []wordChange) {
	fs := f.fs
	slots := make([]snapSlot, 0, len(changes)+2)
	for _, c := range changes {
		if c.n.recIdx < 0 {
			panic("core: committing a node without a record")
		}
		slots = append(slots, snapSlot{recIdx: c.n.recIdx, kind: snapSlotWord,
			old: uint16(c.old), new: uint16(c.new)})
		if c.newLogOff != 0 {
			slots = append(slots, snapSlot{recIdx: c.n.recIdx, kind: snapSlotLogSwap,
				logOff: c.newLogOff})
		}
	}
	chainLen := (len(slots) + snapOpSlots - 1) / snapOpSlots
	if chainLen == 0 {
		chainLen = 1
	}
	group := fs.opSeq.Add(1)
	epoch := uint8(fs.epoch.Load())
	extra := make([]int, 0, chainLen-1)
	for i := 1; i < chainLen; i++ {
		e := fs.mlog.claim(ctx, ctx.ID+i)
		extra = append(extra, e)
		lo := i * snapOpSlots
		hi := lo + snapOpSlots
		if hi > len(slots) {
			hi = len(slots)
		}
		fs.mlog.commitSnap(ctx, e, f.pf.Slot(), off, length, newSize, slots[lo:hi], group, i, chainLen, epoch)
	}
	first := slots
	if len(first) > snapOpSlots {
		first = first[:snapOpSlots]
	}
	fs.mlog.commitSnap(ctx, entry, f.pf.Slot(), off, length, newSize, first, group, 0, chainLen, epoch)
	fs.stats.MetaEntries.Add(ctx.ID, int64(chainLen))

	for _, c := range changes {
		c.n.word.Store(c.new)
		fs.dir.setWord(ctx, c.n.recIdx, c.new)
		if c.newLogOff != 0 {
			fs.dir.setLogOff(ctx, c.n.recIdx, c.newLogOff)
			c.n.logOff = c.newLogOff
		}
		if c.markStale {
			c.n.stale.Store(true)
		}
	}
	for _, c := range changes {
		if c.newLogOff != 0 && c.oldLogOff != 0 {
			fs.prov.Alloc().Free(ctx, c.oldLogOff, c.n.span/LeafSpan)
		}
	}
	for _, e := range extra {
		fs.mlog.retire(ctx, e)
	}
}

// writeTo performs one pending store.
func (f *file) writeTo(ctx *sim.Ctx, w dataWrite) {
	if w.logOff != 0 {
		f.fs.dev.WriteNT(ctx, w.data, w.logOff+(w.abs-w.dst.offset()))
		return
	}
	if w.dst == nil {
		f.pf.DirectWrite(ctx, w.data, w.abs)
		return
	}
	f.fs.dev.WriteNT(ctx, w.data, w.dst.logOff+(w.abs-w.dst.offset()))
}

// planInterior handles a full-span target: the shadow toggle at coarse
// granularity. If the node's log is not the source of truth, the new data
// goes there (redo role); if it is, the new data goes to the fallback
// (nearest valid ancestor's log, or the file) and the node's bit flips off
// (undo role) — either way exactly one data write (§III-B1, Figure 3).
func (f *file) planInterior(ctx *sim.Ctx, s segment, data []byte) (dataWrite, wordChange, error) {
	n := s.n
	f.touchNode(n)
	snap := f.maxLiveSnap.Load() != 0
	if snap {
		f.cowPin(ctx, n)
	}
	f.ensureRecord(ctx, n)
	old := n.word.Load()
	if snap && (old&bitValid != 0 || (n.logOff != 0 && f.fs.prov.Alloc().RefCount(n.logOff) > 1)) {
		// Copy-on-write: the fallback and any pin-shared block are frozen, so
		// neither the undo toggle nor an in-place redo into a shared log is
		// allowed. Relocate the whole span to a fresh block; the old block's
		// live reference is released when the swap commits (pins keep it
		// alive as long as a snapshot reads it).
		newOff, err := f.fs.prov.Alloc().AllocContig(ctx, n.span/LeafSpan)
		if err != nil {
			return dataWrite{}, wordChange{}, err
		}
		f.fs.stats.SnapshotCoWRewrites.Add(1)
		return dataWrite{dst: n, abs: s.lo, data: data, logOff: newOff},
			wordChange{n: n, old: old, new: bitValid, markStale: old&bitExisting != 0,
				newLogOff: newOff, oldLogOff: n.logOff},
			nil
	}
	var dst *node
	var newWord uint64
	if old&bitValid != 0 {
		dst = f.lastValidLog(n) // nil = the file
		newWord = 0
		f.fs.stats.ToggleToFallback.Add(1)
	} else {
		if err := f.ensureLog(ctx, n); err != nil {
			return dataWrite{}, wordChange{}, err
		}
		dst = n
		newWord = bitValid
		f.fs.stats.ToggleToLog.Add(1)
	}
	return dataWrite{dst: dst, abs: s.lo, data: data},
		wordChange{n: n, old: old, new: newWord, markStale: old&bitExisting != 0},
		nil
}

// rangeData is one disjoint byte range of new data within a leaf.
type rangeData struct {
	lo, hi int64
	data   []byte
}

// planLeaf handles a leaf target: per-sub-unit shadow toggles with
// read-modify-write completion for partially covered units ("there will
// still be some redundant writes if the write is not aligned").
func (f *file) planLeaf(ctx *sim.Ctx, s segment, data []byte,
	writes []dataWrite, changes []wordChange) ([]dataWrite, []wordChange, error) {
	return f.planLeafRanges(ctx, s.n, []rangeData{{s.lo, s.hi, data}}, writes, changes)
}

// planLeafRanges plans one leaf's shadow toggle for any number of disjoint
// new-data ranges (WriteMulti may land several updates in one leaf; each
// sub-unit must toggle exactly once per operation).
func (f *file) planLeafRanges(ctx *sim.Ctx, n *node, ranges []rangeData,
	writes []dataWrite, changes []wordChange) ([]dataWrite, []wordChange, error) {
	f.touchNode(n)
	snap := f.maxLiveSnap.Load() != 0
	if snap {
		f.cowPin(ctx, n)
	}
	f.ensureRecord(ctx, n)
	unit := int64(LeafSpan / f.subBits())
	base := n.offset()

	old := n.word.Load()
	newWord := old
	fallback := f.lastValidLog(n)

	// Snapshot copy-on-write: while snapshots live, the fallback (ancestor
	// logs / the file) is frozen and pin-shared blocks must not be written.
	// If this operation would overwrite a valid unit in place or store into a
	// shared block, relocate the whole leaf log to a fresh block: surviving
	// valid units are copied over, hit units toggle ON in the new block, and
	// the (word, logOff) pair swaps atomically at commit.
	var newOff int64
	if snap && n.logOff != 0 {
		need := f.fs.prov.Alloc().RefCount(n.logOff) > 1
		if !need && old != 0 {
			for u := int64(0); u < int64(f.subBits()); u++ {
				if old&(1<<uint(u)) == 0 {
					continue
				}
				ulo, uhi := base+u*unit, base+(u+1)*unit
				for _, r := range ranges {
					if r.lo < uhi && ulo < r.hi {
						need = true
						break
					}
				}
				if need {
					break
				}
			}
		}
		if need {
			var err error
			newOff, err = f.fs.prov.Alloc().Alloc(ctx)
			if err != nil {
				return writes, changes, err
			}
			f.fs.stats.SnapshotCoWRewrites.Add(1)
		}
	}

	for u := int64(0); u < int64(f.subBits()); u++ {
		ulo := base + u*unit
		uhi := ulo + unit
		bit := uint64(1) << uint(u)
		// Collect the ranges intersecting this unit.
		var hit []rangeData
		covered := int64(0)
		for _, r := range ranges {
			if r.lo < uhi && ulo < r.hi {
				hit = append(hit, r)
				lo, hi := r.lo, r.hi
				if lo < ulo {
					lo = ulo
				}
				if hi > uhi {
					hi = uhi
				}
				covered += hi - lo
			}
		}
		if len(hit) == 0 {
			if newOff != 0 && old&bit != 0 {
				// Untouched valid unit: its content must follow the leaf to
				// the relocated block.
				buf := make([]byte, unit)
				f.fs.dev.Read(ctx, buf, n.logOff+u*unit)
				writes = appendWrite(writes, dataWrite{dst: n, abs: ulo, data: buf, logOff: newOff})
			}
			continue
		}
		var dst *node
		var dstOff int64
		if newOff != 0 {
			dst = n
			dstOff = newOff
			newWord |= bit
		} else if old&bit == 0 {
			if err := f.ensureLog(ctx, n); err != nil {
				return writes, changes, err
			}
			dst = n
			newWord |= bit
			f.fs.stats.ToggleToLog.Add(1)
		} else {
			dst = fallback
			newWord &^= bit
			f.fs.stats.ToggleToFallback.Add(1)
		}
		full := len(hit) == 1 && hit[0].lo <= ulo && hit[0].hi >= uhi
		if full {
			r := hit[0]
			writes = appendWrite(writes, dataWrite{dst: dst, abs: ulo, data: r.data[ulo-r.lo : uhi-r.lo], logOff: dstOff})
			continue
		}
		// Partial unit: complete with the current latest content unless the
		// hits jointly cover it, then patch every hit in.
		buf := make([]byte, unit)
		if covered < unit {
			f.resolveData(ctx, ulo, uhi, buf)
		}
		for _, r := range hit {
			lo, hi := r.lo, r.hi
			if lo < ulo {
				lo = ulo
			}
			if hi > uhi {
				hi = uhi
			}
			copy(buf[lo-ulo:], r.data[lo-r.lo:hi-r.lo])
		}
		writes = appendWrite(writes, dataWrite{dst: dst, abs: ulo, data: buf, logOff: dstOff})
	}
	wc := wordChange{n: n, old: old, new: newWord}
	if newOff != 0 {
		wc.newLogOff, wc.oldLogOff = newOff, n.logOff
	}
	return writes, append(changes, wc), nil
}

// appendWrite coalesces contiguous stores to the same destination.
func appendWrite(writes []dataWrite, w dataWrite) []dataWrite {
	if k := len(writes) - 1; k >= 0 {
		last := &writes[k]
		if last.dst == w.dst && last.logOff == w.logOff && last.abs+int64(len(last.data)) == w.abs {
			last.data = append(last.data[:len(last.data):len(last.data)], w.data...)
			return writes
		}
	}
	return append(writes, w)
}

// subBits returns the effective leaf valid-bit count (1 in fixed-granularity
// mode: whole-block logging only).
func (f *file) subBits() int {
	if !f.fs.opts.MultiGranularity {
		return 1
	}
	return f.fs.opts.SubBits
}

// setExistingPath sets the existing bit on every ancestor (root-first),
// performing the deferred child cleaning where a coarse update left stale
// descendants (§III-B2, lazy cleaning for bitmap).
func (f *file) setExistingPath(ctx *sim.Ctx, ancestors []*node) {
	snap := f.maxLiveSnap.Load() != 0
	for _, a := range ancestors {
		if a.stale.Load() {
			f.cleanChildren(ctx, a)
		}
		if !a.existing() {
			if snap {
				// Freeze existing=0 first: a snapshot that saw this node as a
				// cut must not start descending into children populated after
				// it froze.
				f.cowPin(ctx, a)
			}
			f.ensureRecord(ctx, a)
			w := a.word.Load() | bitExisting
			a.word.Store(w)
			f.fs.dir.setWord(ctx, a.recIdx, w)
		}
	}
}

// cleanChildren clears the (stale) bitmap words of a's direct children,
// pushing the staleness marker one level down — the amortized subtree
// invalidation.
func (f *file) cleanChildren(ctx *sim.Ctx, a *node) {
	f.treeMu.Lock(ctx)
	defer f.treeMu.Unlock(ctx)
	if !a.stale.Load() {
		return
	}
	snap := f.maxLiveSnap.Load() != 0
	for i := range a.children {
		c := a.children[i].Load()
		if c == nil {
			continue
		}
		w := c.word.Load()
		if w != 0 {
			if snap {
				// The zeroed word hides state a snapshot may still need; pin
				// the child first. The pin's block reference also forces the
				// next write to this child onto a fresh block instead of the
				// (now frozen) one.
				f.cowPin(ctx, c)
			}
			c.word.Store(0)
			if c.recIdx >= 0 {
				f.fs.dir.setWord(ctx, c.recIdx, 0)
			}
		}
		if !c.leaf && (w&bitExisting != 0 || c.stale.Load()) {
			c.stale.Store(true)
		}
	}
	f.fs.dev.Fence(ctx)
	a.stale.Store(false)
}
