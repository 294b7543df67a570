package core

import (
	"fmt"
	"sync/atomic"

	"mgsp/internal/sim"
)

// LeafSpan is the leaf log granularity (one 4 KiB block).
const LeafSpan = 4096

// node is one radix-tree node of the Multi-granularity Shadow Log. A node
// at span s covers file bytes [idx*s, (idx+1)*s). Its private log (logOff)
// holds the span's latest data wherever the node's valid bit is set; the
// fallback for unset ranges is the nearest ancestor with a valid log, or
// ultimately the file itself (the root's "log" is the file's memory map).
type node struct {
	span int64
	idx  int64
	leaf bool

	parent   *node
	children []atomic.Pointer[node] // nil for leaves; slots filled on demand

	// recIdx is the node directory record index (-1 until persisted). Atomic:
	// ensureRecord's fast path reads it without treeMu.
	recIdx atomic.Int64
	logOff int64 // device offset of the private log; 0 = not allocated

	// word is the volatile mirror of the persistent bitmap word:
	// leaf: SubBits valid bits (bit i covers sub-unit i);
	// interior: bit 0 = valid (private log live), bit 1 = existing
	// (descendants may hold valid logs).
	word atomic.Uint64

	// stale marks that descendants carry superseded valid bits that must be
	// cleared before existing is set again (lazy bitmap cleaning, §III-B2).
	stale atomic.Bool

	// birth is the global snapshot sequence when the node's record was
	// created (persisted in the record). A snapshot with id <= birth treats
	// the node's committed state as nonexistent: everything the node carries
	// was committed after that snapshot froze.
	birth atomic.Uint64

	// snapSeq is the newest live snapshot id this node has been
	// copy-on-write-checked against; writes re-check (and pin the current
	// state) whenever the file's newest snapshot is newer. Volatile —
	// recovery rebuilds it from the pin records.
	snapSeq atomic.Uint64

	// touch is the cleaner generation of the last write touching this node;
	// a subtree whose touch lags the current generation is cold and eligible
	// for write-back. Only maintained while the cleaner is enabled.
	touch atomic.Int64

	lock mglLock
}

const (
	bitValid    = uint64(1) << 0
	bitExisting = uint64(1) << 1
)

func (n *node) offset() int64 { return n.idx * n.span }

func (n *node) valid() bool    { return !n.leaf && n.word.Load()&bitValid != 0 }
func (n *node) existing() bool { return !n.leaf && n.word.Load()&bitExisting != 0 }

// String formats the node for debugging.
func (n *node) String() string {
	return fmt.Sprintf("node(span=%d idx=%d word=%#x)", n.span, n.idx, n.word.Load())
}

// childSpan returns the span of n's children under degree d.
func (n *node) childSpan(d int) int64 { return n.span / int64(d) }

// child returns the i-th child or nil.
func (n *node) child(i int64) *node {
	return n.children[i].Load()
}

// ---- tree operations (on file) ----

// ensureTree grows the tree height until the root span covers capacity.
// Volatile-only: new roots start with word existing=1 (a safe
// over-approximation recomputed lazily) persisted via their records when
// first needed; the previous root simply becomes child 0.
func (f *file) ensureTree(ctx *sim.Ctx, capacity int64) {
	if r := f.root.Load(); r != nil && r.span >= capacity {
		return
	}
	f.treeMu.Lock(ctx)
	defer f.treeMu.Unlock(ctx)
	d := int64(f.fs.opts.Degree)
	r := f.root.Load()
	if r == nil {
		span := int64(LeafSpan)
		for span < capacity {
			span *= d
		}
		f.root.Store(f.newNode(ctx, nil, span, 0))
		return
	}
	for r.span < capacity {
		nr := f.newNode(ctx, nil, r.span*d, 0)
		if r.word.Load() != 0 || r.stale.Load() || subtreeHasLogs(r) {
			nr.word.Store(bitExisting)
			f.persistWordIfRecorded(ctx, nr)
		}
		r.parent = nr
		nr.children[0].Store(r)
		f.root.Store(nr)
		r = nr
	}
}

// persistWordIfRecorded pushes a node's volatile word to its record when
// one exists (hint updates on nodes not yet in the directory stay volatile;
// recovery over-approximates existing bits, which is safe).
func (f *file) persistWordIfRecorded(ctx *sim.Ctx, n *node) {
	if idx := n.recIdx.Load(); idx >= 0 {
		f.fs.dir.setWord(ctx, idx, n.word.Load())
	}
}

func subtreeHasLogs(n *node) bool {
	if n.word.Load() != 0 {
		return true
	}
	for i := range n.children {
		if c := n.children[i].Load(); c != nil && subtreeHasLogs(c) {
			return true
		}
	}
	return false
}

// newNode builds a volatile node; its persistent record is created lazily by
// ensureRecord when the node first participates in a committed operation.
func (f *file) newNode(ctx *sim.Ctx, parent *node, span, idx int64) *node {
	n := &node{span: span, idx: idx, parent: parent, leaf: span == LeafSpan}
	n.recIdx.Store(-1)
	n.birth.Store(f.fs.snapSeq.Load())
	if !n.leaf {
		n.children = make([]atomic.Pointer[node], f.fs.opts.Degree)
	}
	ctx.Advance(f.fs.costs.IndexStep)
	return n
}

// ensureChild returns the i-th child of n, creating it (volatile) if absent.
func (f *file) ensureChild(ctx *sim.Ctx, n *node, i int64) *node {
	if c := n.children[i].Load(); c != nil {
		return c
	}
	f.treeMu.Lock(ctx)
	defer f.treeMu.Unlock(ctx)
	if c := n.children[i].Load(); c != nil {
		return c
	}
	c := f.newNode(ctx, n, n.childSpan(f.fs.opts.Degree), n.idx*int64(f.fs.opts.Degree)+i)
	n.children[i].Store(c)
	return c
}

// ensureRecord persists the node's directory record (tag + logOff + word +
// birth sequence) so the metadata log can reference it and recovery can
// rebuild the tree. The birth sequence is the current global snapshot
// sequence: any already-live snapshot predates every bit this record will
// ever commit, so snapshot readers skip it.
func (f *file) ensureRecord(ctx *sim.Ctx, n *node) {
	if n.recIdx.Load() >= 0 {
		return
	}
	f.treeMu.Lock(ctx)
	defer f.treeMu.Unlock(ctx)
	if n.recIdx.Load() >= 0 {
		return
	}
	birth := f.fs.snapSeq.Load()
	n.birth.Store(birth)
	n.recIdx.Store(f.fs.dir.create(ctx, packTag(f.pf.Slot(), f.spanExp(n.span), n.idx),
		n.logOff, n.word.Load(), birth, 0))
}

// spanExp returns e such that span == LeafSpan * Degree^e.
func (f *file) spanExp(span int64) int {
	e := 0
	for s := int64(LeafSpan); s < span; s *= int64(f.fs.opts.Degree) {
		e++
	}
	return e
}

// ensureLog allocates the node's private log (span bytes, contiguous) and
// persists the location in its record. Safe before commit: a log referenced
// by a record whose valid bit is clear is simply unused after a crash.
func (f *file) ensureLog(ctx *sim.Ctx, n *node) error {
	if n.logOff != 0 {
		return nil
	}
	f.ensureRecord(ctx, n)
	f.treeMu.Lock(ctx)
	defer f.treeMu.Unlock(ctx)
	if n.logOff != 0 {
		return nil
	}
	off, err := f.fs.prov.Alloc().AllocContig(ctx, n.span/LeafSpan)
	if err != nil {
		return err
	}
	f.fs.dir.setLogOff(ctx, n.recIdx.Load(), off)
	n.logOff = off
	return nil
}

// lastValidLog walks up from n's parent and returns the nearest ancestor
// with a valid private log, or nil meaning the file itself.
func (f *file) lastValidLog(n *node) *node {
	for a := n.parent; a != nil; a = a.parent {
		if a.valid() {
			return a
		}
	}
	return nil
}

// segment is a resolved covering target: the byte range [lo, hi) of the
// file handled at node n (n spans exactly [lo,hi) unless n is a leaf
// handling a partial range). A write's segments carry their new bytes in
// data.
type segment struct {
	n      *node
	lo, hi int64
	data   []byte
}

// cover decomposes [lo, hi) into maximal aligned node targets, creating
// nodes along the way — Algorithm 1's traversal, minus the data movement.
// With MultiGranularity off, every target is a leaf.
func (f *file) cover(ctx *sim.Ctx, n *node, lo, hi int64, out []segment) []segment {
	ctx.Advance(f.fs.costs.IndexStep)
	if n.leaf {
		return append(out, segment{n: n, lo: lo, hi: hi})
	}
	if f.fs.opts.MultiGranularity && lo == n.offset() && hi == n.offset()+n.span && n.parent != nil {
		// Whole-node coverage: handle at this granularity (never the root —
		// the root's log is the file, and in-place whole-file writes would
		// not be failure-atomic).
		return append(out, segment{n: n, lo: lo, hi: hi})
	}
	cs := n.childSpan(f.fs.opts.Degree)
	for cur := lo; cur < hi; {
		ci := (cur - n.offset()) / cs
		cEnd := n.offset() + (ci+1)*cs
		if cEnd > hi {
			cEnd = hi
		}
		c := f.ensureChild(ctx, n, ci)
		out = f.cover(ctx, c, cur, cEnd, out)
		cur = cEnd
	}
	return out
}

// searchStart picks the traversal starting node: the cached minimum search
// tree if it covers the range, else its adjacent sibling, else the root
// (§III-B1, "minimum search tree").
func (f *file) searchStart(ctx *sim.Ctx, lo, hi int64) *node {
	root := f.root.Load()
	if !f.fs.opts.MinSearchTree {
		return root
	}
	if m := f.minSearch.Load(); m != nil {
		if covers(m, lo, hi) {
			f.fs.stats.MinSearchHits.Add(1)
			return m
		}
		ctx.Advance(f.fs.costs.IndexStep)
		if sib := f.sibling(m); sib != nil && covers(sib, lo, hi) {
			f.fs.stats.MinSearchHits.Add(1)
			return sib
		}
	}
	f.fs.stats.MinSearchMisses.Add(1)
	return root
}

func covers(n *node, lo, hi int64) bool {
	return n.offset() <= lo && hi <= n.offset()+n.span
}

// sibling returns the next node at the same level, if created.
func (f *file) sibling(n *node) *node {
	p := n.parent
	if p == nil {
		return nil
	}
	i := n.idx % int64(f.fs.opts.Degree)
	if i+1 >= int64(f.fs.opts.Degree) {
		return nil
	}
	return p.children[i+1].Load()
}

// updateMinSearch caches the smallest created subtree covering [lo, hi).
func (f *file) updateMinSearch(lo, hi int64) {
	if !f.fs.opts.MinSearchTree {
		return
	}
	n := f.root.Load()
	for !n.leaf {
		cs := n.childSpan(f.fs.opts.Degree)
		ci := (lo - n.offset()) / cs
		if (hi-1-n.offset())/cs != ci {
			break
		}
		c := n.children[ci].Load()
		if c == nil {
			break
		}
		n = c
	}
	f.minSearch.Store(n)
}

// pathTo returns the ancestors of target from the given start node (nearest
// first is NOT required; returned root-first for lock ordering).
func pathTo(start, target *node) []*node {
	var rev []*node
	for a := target.parent; a != nil; a = a.parent {
		rev = append(rev, a)
		if a == start {
			break
		}
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}
