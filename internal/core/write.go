package core

import (
	"cmp"
	"fmt"
	"slices"

	"mgsp/internal/obs"
	"mgsp/internal/sim"
	"mgsp/internal/vfs"
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

// Update is one range of a multi-range atomic write.
type Update struct {
	Off  int64
	Data []byte
}

// WriteAt implements vfs.File: one failure-atomic MGSP write (§III-D), the
// one-update case of the write commit.
func (h *handle) WriteAt(ctx *sim.Ctx, p []byte, off int64) (int, error) {
	if err := h.guard(); err != nil {
		return 0, err
	}
	if err := vfs.CheckWrite(off, len(p)); err != nil {
		return 0, fmt.Errorf("core: %w", err)
	}
	if len(p) == 0 {
		return 0, nil
	}
	if err := h.f.write(ctx, []Update{{Off: off, Data: p}}, h.f.fs.hWrite, obs.OpWrite); err != nil {
		return 0, err
	}
	return len(p), nil
}

// WriteMulti applies several discontiguous updates as ONE failure-atomic
// operation: all ranges become visible together or not at all. This is the
// transaction-level atomicity the paper lists as future work (§IV-D: "we
// hope to add related designs in future work so that existing database
// software can obtain corresponding performance gains without
// modification") — it falls out of MGSP's commit protocol naturally, since
// a metadata-log entry chain can carry the bitmap flips of any number of
// shadowed ranges and commits with a single entry persist. Empty updates
// are skipped; a call with nothing to write changes nothing.
func (h *handle) WriteMulti(ctx *sim.Ctx, updates []Update) error {
	if err := h.guard(); err != nil {
		return err
	}
	return h.f.write(ctx, updates, h.f.fs.hWritev, obs.OpWriteMulti)
}

// write is MGSP's one write commit: shadow data writes, one fence, then one
// metadata-log entry chain whose bitmap flips are the commit point (§III-B,
// §III-C1, §III-D), for any number of disjoint updates. hist and kind are
// the calling entry point's latency histogram and trace kind.
func (f *file) write(ctx *sim.Ctx, updates []Update, hist *obs.Histogram, kind obs.Op) error {
	lo, end, total, err := writeExtent(updates)
	if err != nil || total == 0 {
		return err
	}
	fs := f.fs
	fs.stats.Writes.Add(ctx.ID, 1)
	fs.stats.UserWriteBytes.Add(ctx.ID, total)
	began := ctx.Now()
	// Enter the in-flight window (checkpoint quiesce) first; the deferred
	// exit runs after the lock release below (LIFO), so the cleaner's
	// piggyback pass never starts while this op holds node locks.
	fs.inFlight.Add(1)
	defer fs.opExit(ctx)
	// Drain optimistic readers before mutating anything they might copy.
	f.writerEnter()
	defer f.writerExit()

	// Make room: file capacity (underlying fallocate+mmap) and tree height.
	if err := f.pf.EnsureCapacity(ctx, end); err != nil {
		return err
	}
	f.ensureTree(ctx, f.pf.Capacity())

	// Claim a private metadata log entry (lock-free, §III-C1).
	entry := fs.mlog.claim(ctx, ctx.ID)

	// Locate targets (Algorithm 1's traversal) from the node covering the
	// whole extent, sort them into offset order, and lock (§III-C2).
	start := f.searchStart(ctx, lo, end)
	var segs []segment
	for _, u := range updates {
		if len(u.Data) == 0 {
			continue
		}
		k := len(segs)
		segs = f.cover(ctx, start, u.Off, u.Off+int64(len(u.Data)), segs)
		for i := k; i < len(segs); i++ {
			segs[i].data = u.Data[segs[i].lo-u.Off : segs[i].hi-u.Off]
		}
	}
	slices.SortFunc(segs, func(a, b segment) int { return cmp.Compare(a.lo, b.lo) })
	locks := f.lockOp(ctx, start, segs, true)
	defer f.release(ctx, locks)

	// Set existing bits down the paths, cleaning lazily-invalidated
	// descendants on the way (§III-B2).
	f.setExistingPath(ctx, ancestorsOf(segs))

	// Plan, in offset order: per-target shadow-log destination, data writes,
	// word changes. The parts of one leaf sit next to each other in the
	// sorted cover, so each leaf is planned once over all of them: every
	// sub-unit toggles exactly once per operation.
	var writes []dataWrite
	var changes []wordChange
	for i := 0; i < len(segs); {
		if !segs[i].n.leaf {
			w, c, err := f.planInterior(ctx, segs[i])
			if err != nil {
				return err
			}
			writes = append(writes, w)
			changes = append(changes, c)
			i++
			continue
		}
		j := i + 1
		for j < len(segs) && segs[j].n == segs[i].n {
			j++
		}
		var err error
		writes, changes, err = f.planLeafRanges(ctx, segs[i:j], writes, changes)
		if err != nil {
			return err
		}
		i = j
	}

	// Shadow-data phase: every store lands in a location that is not the
	// current source of truth, so nothing is visible until commit.
	for _, w := range writes {
		f.writeTo(ctx, w)
	}
	fs.dev.Fence(ctx)

	// Commit: persist the metadata log entry chain, then apply the changes.
	newSize := max(f.size.Load(), end)
	f.commitChanges(ctx, entry, lo, end-lo, newSize, changes)

	// Publish the new size (also recorded in the entry for recovery).
	if end > f.size.Load() {
		f.sizeMu.Lock(ctx)
		if end > f.size.Load() {
			f.size.Store(end)
			f.pf.SetSize(ctx, end)
		}
		f.sizeMu.Unlock(ctx)
	}

	fs.mlog.retire(ctx, entry)
	if fs.pcache != nil {
		// Committed: bring overlapping frames up to date while the W locks
		// still exclude readers (release is deferred).
		for _, u := range updates {
			if len(u.Data) > 0 {
				f.patchFrames(u.Data, u.Off)
			}
		}
	}
	f.updateMinSearch(lo, end)
	dur := ctx.Now() - began
	hist.Observe(dur)
	fs.trace.Record(ctx.ID, kind, f.pf.Slot(), lo, end-lo, dur)
	return nil
}

// patchFrames brings cached frames (DESIGN.md §13.3) up to date with a
// just-committed write of p at off. Callers hold the op's node W locks inside
// its writer section, so no locked or optimistic reader fills a frame of
// these blocks concurrently. Present frames are patched; absent frames are
// installed only for fully covered blocks, warming write-then-read.
func (f *file) patchFrames(p []byte, off int64) {
	pc := f.fs.pcache
	key := int(f.key.Load())
	end := off + int64(len(p))
	for block := off / LeafSpan; block*LeafSpan < end; block++ {
		blockLo := block * LeafSpan
		lo := max(off, blockLo)
		hi := min(end, blockLo+LeafSpan)
		chunk := p[lo-off : hi-off]
		if pc.Patch(key, block, int(lo-blockLo), chunk, false) {
			continue
		}
		if lo == blockLo && hi == blockLo+LeafSpan {
			buf := make([]byte, LeafSpan)
			copy(buf, chunk)
			pc.Install(key, block, buf, false)
		}
	}
}

// writeExtent validates a write's updates and returns the extent [lo, end)
// of the non-empty ones and their total size; total 0 means there is
// nothing to write. Empty updates are skipped before any check.
func writeExtent(updates []Update) (lo, end, total int64, err error) {
	for _, u := range updates {
		if len(u.Data) == 0 {
			continue
		}
		if err := vfs.CheckWrite(u.Off, len(u.Data)); err != nil {
			return 0, 0, 0, fmt.Errorf("core: %w", err)
		}
		if total == 0 || u.Off < lo {
			lo = u.Off
		}
		end = max(end, u.Off+int64(len(u.Data)))
		total += int64(len(u.Data))
	}
	for i, u := range updates {
		for _, v := range updates[i+1:] {
			if len(u.Data) > 0 && len(v.Data) > 0 &&
				u.Off < v.Off+int64(len(v.Data)) && v.Off < u.Off+int64(len(u.Data)) {
				return 0, 0, 0, fmt.Errorf("core: overlapping updates at %d and %d", u.Off, v.Off)
			}
		}
	}
	return lo, end, total, nil
}

// commitChanges persists the operation's metadata-log entry chain — the
// commit point — then applies the changes: bitmap words, copy-on-write log
// swaps (record logOff updated, node repointed), and the release of each
// swapped-out block's live reference. Snapshot pins keep such a block
// alive for as long as any frozen view still reads it.
func (f *file) commitChanges(ctx *sim.Ctx, entry int, off, length, newSize int64, changes []wordChange) {
	fs := f.fs
	n := len(changes)
	for _, c := range changes {
		if c.newLogOff != 0 {
			n++
		}
	}
	slots := make([]opSlot, 0, n)
	for _, c := range changes {
		idx := c.n.recIdx.Load()
		if idx < 0 {
			panic("core: committing a node without a record")
		}
		slots = append(slots, opSlot{recIdx: idx, old: uint16(c.old), new: uint16(c.new)})
		if c.newLogOff != 0 {
			slots = append(slots, opSlot{recIdx: idx, kind: opSlotLogSwap, logOff: c.newLogOff})
		}
	}
	group := fs.opSeq.Add(1)
	// Stamp the current cleaner epoch (0 forever while the cleaner is off).
	// Read inside the in-flight window: the checkpoint quiesce waits for this
	// op to retire, so an entry can never carry an epoch older than a
	// checkpoint that excludes it.
	epoch := uint8(fs.epoch.Load())
	extra := fs.mlog.commitOp(ctx, entry, ctx.ID, f.pf.Slot(), off, length, newSize, slots, group, epoch)
	fs.stats.MetaEntries.Add(ctx.ID, int64(len(extra)+1))

	for _, c := range changes {
		c.n.word.Store(c.new)
		idx := c.n.recIdx.Load()
		fs.dir.setWord(ctx, idx, c.new)
		if c.newLogOff != 0 {
			fs.dir.setLogOff(ctx, idx, c.newLogOff)
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
func (f *file) planInterior(ctx *sim.Ctx, s segment) (dataWrite, wordChange, error) {
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
		return dataWrite{dst: n, abs: s.lo, data: s.data, logOff: newOff},
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
	return dataWrite{dst: dst, abs: s.lo, data: s.data},
		wordChange{n: n, old: old, new: newWord, markStale: old&bitExisting != 0},
		nil
}

// planLeafRanges plans one leaf's shadow toggle: per-sub-unit toggles with
// read-modify-write completion for partially covered units ("there will
// still be some redundant writes if the write is not aligned"). run holds
// the leaf's segments in offset order — one per update landing in it — and
// each sub-unit toggles exactly once per operation.
func (f *file) planLeafRanges(ctx *sim.Ctx, run []segment,
	writes []dataWrite, changes []wordChange) ([]dataWrite, []wordChange, error) {
	n := run[0].n
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
				for _, r := range run {
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
		// Count the segments intersecting this unit and how much of it they
		// cover.
		hits, covered := 0, int64(0)
		var first segment
		for _, r := range run {
			if r.lo < uhi && ulo < r.hi {
				if hits == 0 {
					first = r
				}
				hits++
				covered += min(r.hi, uhi) - max(r.lo, ulo)
			}
		}
		if hits == 0 {
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
		if hits == 1 && covered == unit {
			writes = appendWrite(writes, dataWrite{dst: dst, abs: ulo, data: first.data[ulo-first.lo : uhi-first.lo], logOff: dstOff})
			continue
		}
		// Partial unit: complete with the current latest content unless the
		// hits jointly cover it, then patch every hit in.
		buf := make([]byte, unit)
		if covered < unit {
			f.resolveData(ctx, ulo, uhi, buf)
		}
		for _, r := range run {
			if r.lo < uhi && ulo < r.hi {
				lo, hi := max(r.lo, ulo), min(r.hi, uhi)
				copy(buf[lo-ulo:], r.data[lo-r.lo:hi-r.lo])
			}
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
			f.fs.dir.setWord(ctx, a.recIdx.Load(), w)
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
			if idx := c.recIdx.Load(); idx >= 0 {
				f.fs.dir.setWord(ctx, idx, 0)
			}
		}
		if !c.leaf && (w&bitExisting != 0 || c.stale.Load()) {
			c.stale.Store(true)
		}
	}
	f.fs.dev.Fence(ctx)
	a.stale.Store(false)
}
