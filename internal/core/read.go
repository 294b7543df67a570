package core

import (
	"fmt"

	"mgsp/internal/obs"
	"mgsp/internal/sim"
)

// ReadAt implements vfs.File: lock the range (greedy or MGL with IR/R),
// then assemble the latest data per the valid/existing bitmaps (§III-D).
func (h *handle) ReadAt(ctx *sim.Ctx, p []byte, off int64) (int, error) {
	if err := h.guard(); err != nil {
		return 0, err
	}
	if off < 0 {
		return 0, fmt.Errorf("core: negative offset %d", off)
	}
	f := h.f
	fs := f.fs
	fs.stats.Reads.Add(ctx.ID, 1)
	began := ctx.Now()
	size := f.size.Load()
	if off >= size || len(p) == 0 {
		return 0, nil
	}
	n := len(p)
	if int64(n) > size-off {
		n = int(size - off)
	}
	fs.stats.UserReadBytes.Add(ctx.ID, int64(n))
	end := off + int64(n)

	// Optimistic lock-free path (DESIGN.md §14): register in the Dekker gate,
	// walk without locks, validate node versions after the copy. Any failure
	// falls through to the locked path below. Gated to MGL without a cache
	// tier, so the cache block never races this.
	if fs.optGate && f.readOptimistic(ctx, p[:n], off, began) {
		return n, nil
	}

	// Cache tier (DESIGN.md §13). Single-block reads try the optimistic
	// latch-free frame probe first: hit means one DRAM copy instead of a tree
	// walk plus media reads. Frames only mirror committed content, so a miss
	// (absent or contended frame) falls through to the tree walk below.
	block := off / LeafSpan
	single := fs.pcache != nil && end <= (block+1)*LeafSpan
	if single && fs.pcache.Read(f.pf.Slot(), block, p[:n], int(off-block*LeafSpan)) {
		ctx.Advance(fs.costs.IndexStep + fs.costs.DRAMCopyCost(n))
		dur := ctx.Now() - began
		fs.hRead.Observe(dur)
		fs.trace.Record(ctx.ID, obs.OpRead, f.pf.Slot(), off, int64(n), dur)
		return n, nil
	}

	root := f.root.Load()
	if root == nil {
		// Nothing was ever written through MGSP in this incarnation; the
		// file itself is the only source. No frame install here: this path
		// holds no locks, so a fill could clobber a racing writer's newer
		// frame content.
		f.pf.DirectRead(ctx, p[:n], off)
		dur := ctx.Now() - began
		fs.hRead.Observe(dur)
		fs.trace.Record(ctx.ID, obs.OpRead, f.pf.Slot(), off, int64(n), dur)
		return n, nil
	}

	start := f.searchStart(ctx, off, end)
	segs := f.readCover(ctx, start, off, end, nil)
	locks := f.lockOp(ctx, start, segs, false)
	if single {
		// Miss fill: resolve the whole block while the R locks pin its
		// content (writers patch frames under W), install it, and serve the
		// request from the copy.
		blockLo := block * LeafSpan
		buf := make([]byte, LeafSpan)
		f.resolveData(ctx, blockLo, blockLo+LeafSpan, buf)
		copy(p[:n], buf[off-blockLo:])
		fs.pcache.Install(f.pf.Slot(), block, buf, false)
	} else {
		f.resolveData(ctx, off, end, p[:n])
	}
	f.release(ctx, locks)
	f.updateMinSearch(off, end)
	dur := ctx.Now() - began
	fs.hRead.Observe(dur)
	fs.trace.Record(ctx.ID, obs.OpRead, f.pf.Slot(), off, int64(n), dur)
	return n, nil
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
