package core

import (
	"fmt"

	"mgsp/internal/obs"
	"mgsp/internal/sim"
)

// ReadAt implements vfs.File (§III-D, DESIGN.md §13.2).
func (h *handle) ReadAt(ctx *sim.Ctx, p []byte, off int64) (int, error) {
	if err := h.guard(); err != nil {
		return 0, err
	}
	return h.f.read(ctx, p, off, nil)
}

// read serves [off, off+len(p)) of the live file (s == nil) or of snapshot
// s's frozen image, short at the end of file. Every read runs it: a live
// read inside one block probes its frame first; a miss, or any other read,
// takes the optimistic walk under MGL (optread.go) and the locked walk when
// that is off or fails. A live single-block miss fills its frame while the
// read is pinned, so a writer that commits to the block later patches it.
func (f *file) read(ctx *sim.Ctx, p []byte, off int64, s *snapshot) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("core: negative offset %d", off)
	}
	fs := f.fs
	live := s == nil
	if live {
		fs.stats.Reads.Add(ctx.ID, 1)
	} else {
		fs.stats.SnapshotReads.Add(1)
	}
	began := ctx.Now()
	_, size := f.viewOf(s, nil)
	if off >= size || len(p) == 0 {
		return 0, nil
	}
	p = p[:min(int64(len(p)), size-off)]
	n, block := len(p), off/LeafSpan
	fill := live && fs.pcache != nil && off+int64(n) <= (block+1)*LeafSpan
	if live {
		fs.stats.UserReadBytes.Add(ctx.ID, int64(n))
	}
	switch {
	case fill && fs.pcache.Read(int(f.key.Load()), block, p, int(off-block*LeafSpan)):
		ctx.Advance(fs.costs.IndexStep + fs.costs.DRAMCopyCost(n))
	case fs.optGate && f.readOptimistic(ctx, p, off, s, fill):
	default:
		f.readLocked(ctx, p, off, s, fill)
	}
	dur := ctx.Now() - began
	kind := obs.OpSnapRead
	if live {
		kind = obs.OpRead
		fs.hRead.Observe(dur)
	}
	fs.trace.Record(ctx.ID, kind, f.pf.Slot(), off, int64(n), dur)
	return n, nil
}

// viewOf returns the view a read of snapshot s (nil = the live tree) walks,
// recording node versions into vers if non-nil, and the end of file it sees.
func (f *file) viewOf(s *snapshot, vers *[]nodeVer) (view, int64) {
	if s == nil {
		return view{vers: vers}, f.size.Load()
	}
	return view{sid: s.id, vers: vers}, s.size
}

// resolveRead fills p with [off, off+len(p)) as v sees it from root. With
// fill set it resolves p's whole block, serves p from it and returns the
// block for the caller to install while still pinned. A nil root never
// fills: create-over resets the file outside any writer section. ok=false:
// the view abandoned the walk.
func (f *file) resolveRead(ctx *sim.Ctx, root *node, v view, eof int64, p []byte, off int64, fill bool) (frame []byte, ok bool) {
	if !fill || root == nil {
		return nil, f.readView(ctx, root, v, off, p, eof)
	}
	lo := off / LeafSpan * LeafSpan
	frame = make([]byte, LeafSpan)
	if !f.readView(ctx, root, v, lo, frame, eof) {
		return nil, false
	}
	copy(p, frame[off-lo:])
	return frame, true
}

// readLocked serves p at off under R locks on the read's cover, or under the
// file lock in LockFile mode. A nil root reads the file with nothing to lock.
func (f *file) readLocked(ctx *sim.Ctx, p []byte, off int64, s *snapshot, fill bool) {
	key, root, end := int(f.key.Load()), f.root.Load(), off+int64(len(p))
	var locks *opLocks
	if root != nil {
		start := f.searchStart(ctx, off, end)
		locks = f.lockOp(ctx, start, f.readCover(ctx, start, off, end, nil), false)
		root = f.root.Load() // the tree may have grown while this read locked
	}
	v, eof := f.viewOf(s, nil)
	if frame, _ := f.resolveRead(ctx, root, v, eof, p, off, fill); frame != nil {
		f.fs.pcache.Install(key, off/LeafSpan, frame, false)
	}
	if locks != nil {
		f.release(ctx, locks)
		if s == nil {
			f.updateMinSearch(off, end)
		}
	}
}

// readCover decomposes [lo,hi) into lock targets without creating nodes:
// recursion descends only into existing children; absent subtrees are
// covered by locking the current node once.
func (f *file) readCover(ctx *sim.Ctx, n *node, lo, hi int64, out []segment) []segment {
	ctx.Advance(f.fs.costs.IndexStep)
	if n.leaf || (f.fs.opts.MultiGranularity && lo == n.offset() && hi == n.offset()+n.span && n.parent != nil) {
		return append(out, segment{n: n, lo: lo, hi: hi})
	}
	cs := n.childSpan(f.fs.opts.Degree)
	self := false
	for cur := lo; cur < hi; {
		ci := (cur - n.offset()) / cs
		cEnd := n.offset() + (ci+1)*cs
		if cEnd > hi {
			cEnd = hi
		}
		if c := n.children[ci].Load(); c != nil {
			out = f.readCover(ctx, c, cur, cEnd, out)
		} else if !self {
			// Lock this node (R) once to cover every absent child range.
			out = append(out, segment{n: n, lo: cur, hi: cEnd})
			self = true
		}
		cur = cEnd
	}
	return out
}
