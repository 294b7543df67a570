package core

import (
	"mgsp/internal/sim"
)

// The resolver (§III-D, DESIGN.md §3). One rule says where a byte's newest
// copy lives: a node's log wins where its valid bit is set, a set existing
// bit sends the lookup deeper, and the nearest valid ancestor — or, above
// the root, the file — serves the rest. resolve is the only walk that
// applies it. What it sees of each node is the view's business; what
// happens to each run of bytes with one source is the sink's.

// view selects the (word, logOff) the walk sees at each node: the live
// tree, or snapshot sid's frozen image.
type view struct {
	sid uint64 // snapshot id; 0 = the live tree
}

// at returns n's word and log offset under v.
func (v view) at(f *file, n *node) (word uint64, logOff int64) {
	if v.sid != 0 {
		return f.snapNodeView(n, v.sid)
	}
	return n.word.Load(), n.logOff
}

// source is where the walk's current fallback lives: the log at device
// offset log, holding file bytes from offset base on. log == 0 is the
// fallback the walk started with: the file for reads, the destination
// itself for copyBack.
type source struct{ log, base int64 }

// run is [lo, hi) of file bytes whose newest copy starts at device offset
// dev (0 = the starting fallback).
type run struct{ lo, hi, dev int64 }

// sink receives the walk's runs. A read sink (buf != nil) copies each run
// into buf as the walk reaches it, so media reads book the bandwidth
// timeline in walk order. A copy sink only collects the log-served runs;
// copyBack moves them after the walk returns, which keeps every media write
// out of the read paths' reach.
type sink struct {
	buf  []byte // read: file bytes [base, base+len(buf))
	base int64
	eof  int64 // read: bytes at or beyond eof read as zero
	runs []run // copy: log-served runs, contiguous ones merged
}

// resolve hands [lo, hi) of n's span to s, one run per stretch with a
// single source, falling back to fb where no log at or below n is valid.
func (f *file) resolve(ctx *sim.Ctx, n *node, v view, fb source, lo, hi int64, s *sink) {
	word, logOff := v.at(f, n)
	ctx.Advance(f.fs.costs.IndexStep)
	off := n.offset()
	if n.leaf {
		if logOff == 0 {
			word = 0
		}
		unit := int64(LeafSpan / f.subBits())
		own := source{logOff, off}
		for cur := lo; cur < hi; {
			u := (cur - off) / unit
			fromLeaf := word&(1<<uint(u)) != 0
			uEnd := off + (u+1)*unit
			// Extend across units with the same source.
			for uEnd < hi && (word&(1<<uint((uEnd-off)/unit)) != 0) == fromLeaf {
				uEnd += unit
			}
			uEnd = min(uEnd, hi)
			src := fb
			if fromLeaf {
				src = own
			}
			f.emit(ctx, s, src, cur, uEnd)
			cur = uEnd
		}
		return
	}
	if word&bitValid != 0 && logOff != 0 {
		fb = source{logOff, off}
	}
	if word&bitExisting == 0 {
		f.emit(ctx, s, fb, lo, hi)
		return
	}
	cs := n.childSpan(f.fs.opts.Degree)
	for cur := lo; cur < hi; {
		ci := (cur - off) / cs
		cEnd := min(off+(ci+1)*cs, hi)
		if c := n.children[ci].Load(); c != nil {
			f.resolve(ctx, c, v, fb, cur, cEnd, s)
		} else {
			f.emit(ctx, s, fb, cur, cEnd)
		}
		cur = cEnd
	}
}

// emit hands the run [lo, hi) served by src to s.
func (f *file) emit(ctx *sim.Ctx, s *sink, src source, lo, hi int64) {
	dev := int64(0)
	if src.log != 0 {
		dev = src.log + lo - src.base
	}
	if s.buf == nil {
		if dev == 0 {
			return
		}
		if k := len(s.runs) - 1; k >= 0 && s.runs[k].hi == lo && s.runs[k].dev+(lo-s.runs[k].lo) == dev {
			s.runs[k].hi = hi
			return
		}
		s.runs = append(s.runs, run{lo, hi, dev})
		return
	}
	out := s.buf[lo-s.base : hi-s.base]
	valid := max(min(hi, s.eof)-lo, 0)
	if valid > 0 {
		if dev == 0 {
			f.pf.DirectRead(ctx, out[:valid], lo)
		} else {
			f.fs.dev.Read(ctx, out[:valid], dev)
		}
	}
	clear(out[valid:])
}

// readView fills buf with file bytes [off, off+len(buf)) as v sees them,
// zero from eof on. A nil root leaves the file as the only source.
func (f *file) readView(ctx *sim.Ctx, root *node, v view, off int64, buf []byte, eof int64) {
	s := sink{buf: buf, base: off, eof: eof}
	end := off + int64(len(buf))
	if root == nil {
		f.emit(ctx, &s, source{}, off, end)
		return
	}
	f.resolve(ctx, root, v, source{}, off, end, &s)
}

// resolveData fills buf with the latest content of [lo, hi) of the live
// tree. Callers hold locks that pin the range.
func (f *file) resolveData(ctx *sim.Ctx, lo, hi int64, buf []byte) {
	f.readView(ctx, f.root.Load(), view{}, lo, buf[:hi-lo], f.size.Load())
}

// wbChunk bounds copyBack's staging buffer.
const wbChunk = 64 * 1024

// copyBack writes the part of n's span that logs at or below n serve into
// dst's log, or into the file when dst is nil; bytes past EOF are skipped.
// It is the last-Close write-back (n = root, §III-D) and the cleaner's merge
// of a cold subtree into its fallback. The walk collects the runs first, so
// contiguous runs cost one read and one write each. Callers fence.
func (f *file) copyBack(ctx *sim.Ctx, n, dst *node) {
	var s sink
	if hi := min(n.offset()+n.span, f.size.Load()); n.offset() < hi {
		f.resolve(ctx, n, view{}, source{}, n.offset(), hi, &s)
	}
	if len(s.runs) == 0 {
		return
	}
	if dst == nil {
		if err := f.pf.EnsureCapacity(ctx, s.runs[len(s.runs)-1].hi); err != nil {
			return
		}
	}
	buf := make([]byte, wbChunk)
	for _, r := range s.runs {
		for lo := r.lo; lo < r.hi; {
			k := min(r.hi-lo, wbChunk)
			f.fs.dev.Read(ctx, buf[:k], r.dev+lo-r.lo)
			if dst == nil {
				f.pf.DirectWrite(ctx, buf[:k], lo)
			} else {
				f.fs.dev.WriteNT(ctx, buf[:k], dst.logOff+lo-dst.offset())
			}
			lo += k
		}
	}
}
