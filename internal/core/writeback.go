package core

import (
	"mgsp/internal/sim"
)

const wbChunk = 64 * 1024

// writeback copies every shadow log's live data back into the file and
// releases the tree — the close path of §III-D ("when a file is no longer
// opened by any thread, MGSP will write all logs back to the original file
// and release related metadata"). It is also recovery's write-back: Mount
// keeps the logs, and the file's next last close writes them back here.
func (f *file) writeback(ctx *sim.Ctx) {
	// Write-back holds no node locks; drain optimistic readers so none reads
	// a log block mid-release or the file mid-copy.
	f.writerEnter()
	defer f.writerExit()
	root := f.root.Load()
	if root != nil {
		f.wbWalk(ctx, root, root.offset(), root.offset()+root.span, nil)
		f.fs.dev.Fence(ctx)
		f.releaseSubtree(ctx, root)
	}
	f.root.Store(nil)
	f.minSearch.Store(nil)
	f.releaseAllIntents(ctx)
}

// wbWalk copies the latest content of [lo,hi) into the file wherever the
// source of truth is a private log.
func (f *file) wbWalk(ctx *sim.Ctx, n *node, lo, hi int64, lastValid *node) {
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
				f.copyToFile(ctx, n, cur, uEnd)
			} else if lastValid != nil {
				f.copyToFile(ctx, lastValid, cur, uEnd)
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
			f.copyToFile(ctx, lastValid, lo, hi)
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
			f.wbWalk(ctx, c, cur, cEnd, lastValid)
		} else if lastValid != nil {
			f.copyToFile(ctx, lastValid, cur, cEnd)
		}
		cur = cEnd
	}
}

// copyToFile moves [lo,hi) from src's log into the file in bounded chunks.
func (f *file) copyToFile(ctx *sim.Ctx, src *node, lo, hi int64) {
	if err := f.pf.EnsureCapacity(ctx, hi); err != nil {
		return
	}
	buf := make([]byte, wbChunk)
	for lo < hi {
		n := int64(wbChunk)
		if n > hi-lo {
			n = hi - lo
		}
		f.fs.dev.Read(ctx, buf[:n], src.logOff+(lo-src.offset()))
		f.pf.DirectWrite(ctx, buf[:n], lo)
		lo += n
	}
}
