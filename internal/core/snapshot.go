package core

// Per-file instant snapshots over the multi-granularity shadow tree (see
// DESIGN.md §8). A snapshot freezes the file's current crash-consistent
// image in O(metadata): creation quiesces in-flight operations and persists
// one metadata-log entry (entKindSnapCreate) — no data is copied. Writes
// that would disturb frozen state first "pin" the affected node: a pin is a
// tagSnap directory record holding the node's committed (word, logOff) and a
// reference count on the log block, after which the write relocates any
// overwrite of valid data to a fresh block (copy-on-write) instead of
// toggling through the fallback, which is frozen while snapshots live.

import (
	"runtime"
	"sort"
	"sync/atomic"

	"mgsp/internal/obs"
	"mgsp/internal/sim"
	"mgsp/internal/vfs"
)

// Snapshot errors.
var (
	// ErrHasSnapshots is returned by Remove, Truncate and create-over-existing
	// while the file has live snapshots (they would destroy pinned state).
	ErrHasSnapshots = &snapErr{"core: file has live snapshots"}
	// ErrSnapshotNotFound is returned for an unknown or already-dropped id.
	ErrSnapshotNotFound = &snapErr{"core: no such snapshot"}
	// ErrSnapshotBusy is returned by DropSnapshot while handles are open.
	ErrSnapshotBusy = &snapErr{"core: snapshot has open handles"}
)

type snapErr struct{ s string }

func (e *snapErr) Error() string { return e.s }

// SnapID identifies one snapshot of one file (ids are FS-global and
// monotone; 0 is never a valid id).
type SnapID uint64

// SnapInfo describes one live snapshot for tools and tests.
type SnapInfo struct {
	ID           SnapID
	Size         int64 // frozen file size
	Epoch        uint8 // cleaner epoch at creation
	Pins         int64 // pin records serving this snapshot
	PinnedBlocks int64 // 4 KiB log blocks kept alive for this snapshot's view
}

// snapshot is one live per-file snapshot. Its persistent existence is the
// unretired entKindSnapCreate metadata-log entry at index `entry`.
type snapshot struct {
	id       uint64
	size     int64
	epoch    uint8
	entry    int
	handles  atomic.Int32
	dropping bool // set under f.snapMu; blocks new OpenSnapshot
}

// pin is a frozen view of one tree node, created at the first mutation after
// a snapshot: it serves every snapshot with id <= pin.id (lookup picks the
// smallest pin id >= the snapshot id; newer pins freeze later states). The
// pin holds one allocator reference on logOff while the frozen word actually
// reads from it.
type pin struct {
	recIdx int64
	id     uint64
	logOff int64
	word   uint64
}

// pinRefsLog reports whether a frozen (word, logOff) view reads from the log
// block — leaves through any valid sub-unit bit, interiors only when the
// valid bit is set (an existing-only word never touches the node's log).
func pinRefsLog(leaf bool, word uint64) bool {
	if leaf {
		return word != 0
	}
	return word&bitValid != 0
}

// Snapshot freezes the named file's current image and returns its id. The
// call is O(metadata): one 64-byte log entry plus fences, independent of
// file size. The snapshot holds a file reference (deferring close-time
// write-back) until dropped.
func (fs *FS) Snapshot(ctx *sim.Ctx, name string) (SnapID, error) {
	began := ctx.Now()
	fs.snapAdmin.Lock(ctx)
	defer fs.snapAdmin.Unlock(ctx)

	fs.mu.Lock(ctx)
	f := fs.files[name]
	if f == nil {
		fs.mu.Unlock(ctx)
		return 0, vfs.ErrNotExist
	}
	f.refs.Add(1)
	fs.mu.Unlock(ctx)

	id := fs.snapSeq.Add(1)
	entry := fs.mlog.claim(ctx, ctx.ID)
	// Publish copy-on-write mode first, then wait out operations that may
	// have read the old value mid-plan: any operation starting after the
	// quiesce observes the new id and pins before mutating.
	f.maxLiveSnap.Store(id)
	for fs.inFlight.Load() != 0 {
		runtime.Gosched()
	}
	size := f.size.Load()
	epoch := uint8(fs.epoch.Load())
	// Commit point: the create entry stays claimed (and unretired) until the
	// snapshot is dropped — it IS the snapshot's persistent existence.
	fs.mlog.commitSnapshotMark(ctx, entry, entKindSnapCreate, f.pf.Slot(), id, size, epoch)

	f.snapMu.Lock()
	f.snaps = append(f.snaps, &snapshot{id: id, size: size, epoch: epoch, entry: entry})
	f.snapMu.Unlock()
	fs.stats.SnapshotsTaken.Add(1)
	dur := ctx.Now() - began
	fs.hSnapshot.Observe(dur)
	fs.trace.Record(ctx.ID, obs.OpSnapshot, f.pf.Slot(), 0, int64(id), dur)
	return SnapID(id), nil
}

// OpenSnapshot returns a read-only handle onto the frozen image. Reads take
// the same MGL read locks as live reads, so they run concurrently with
// writers (which hold conflicting W locks only briefly per operation).
func (fs *FS) OpenSnapshot(ctx *sim.Ctx, name string, id SnapID) (vfs.File, error) {
	fs.mu.Lock(ctx)
	f := fs.files[name]
	fs.mu.Unlock(ctx)
	if f == nil {
		return nil, vfs.ErrNotExist
	}
	f.snapMu.Lock()
	s := f.findSnapLocked(uint64(id))
	if s == nil || s.dropping {
		f.snapMu.Unlock()
		return nil, ErrSnapshotNotFound
	}
	s.handles.Add(1)
	f.snapMu.Unlock()
	ctx.Advance(fs.costs.Syscall + fs.costs.VFSOp)
	return &snapHandle{f: f, s: s}, nil
}

// DropSnapshot removes a snapshot: it persists a transient drop entry,
// retires the create entry (the durable drop point), garbage-collects every
// pin no remaining snapshot needs, and releases the snapshot's file
// reference (triggering write-back if the file is otherwise closed).
func (fs *FS) DropSnapshot(ctx *sim.Ctx, name string, id SnapID) error {
	fs.snapAdmin.Lock(ctx)
	defer fs.snapAdmin.Unlock(ctx)

	fs.mu.Lock(ctx)
	f := fs.files[name]
	fs.mu.Unlock(ctx)
	if f == nil {
		return vfs.ErrNotExist
	}
	f.snapMu.Lock()
	s := f.findSnapLocked(uint64(id))
	if s == nil || s.dropping {
		f.snapMu.Unlock()
		return ErrSnapshotNotFound
	}
	if s.handles.Load() != 0 {
		f.snapMu.Unlock()
		return ErrSnapshotBusy
	}
	s.dropping = true
	f.snapMu.Unlock()

	// Drop intent, then the commit point: retiring the create entry is the
	// single atomic action after which recovery no longer resurrects the
	// snapshot; the transient drop entry lets Mount finish an interrupted pin
	// GC (orphan pins are collected either way).
	de := fs.mlog.claim(ctx, ctx.ID)
	fs.mlog.commitSnapshotMark(ctx, de, entKindSnapDrop, f.pf.Slot(), uint64(id), 0, uint8(fs.epoch.Load()))
	fs.mlog.retire(ctx, s.entry)

	// Deferred unlocks here and below: pin GC and write-back issue media
	// ops, and a crash-injection panic mid-section must not leak the lock to
	// workers that still have to unwind through their own shields.
	func() {
		f.snapMu.Lock()
		defer f.snapMu.Unlock()
		for i, sn := range f.snaps {
			if sn == s {
				f.snaps = append(f.snaps[:i], f.snaps[i+1:]...)
				break
			}
		}
		var max uint64
		for _, sn := range f.snaps {
			if sn.id > max {
				max = sn.id
			}
		}
		f.maxLiveSnap.Store(max)
		f.gcPinsLocked(ctx)
	}()

	fs.mlog.retire(ctx, de)
	fs.stats.SnapshotsDropped.Add(1)
	fs.trace.Record(ctx.ID, obs.OpSnapDrop, f.pf.Slot(), 0, int64(id), 0)

	fs.mu.Lock(ctx)
	defer fs.mu.Unlock(ctx)
	if f.refs.Add(-1) == 0 {
		f.lastRefGone(ctx)
	}
	return nil
}

// Snapshots lists the named file's live snapshots (ascending id) with their
// pin footprint.
func (fs *FS) Snapshots(ctx *sim.Ctx, name string) ([]SnapInfo, error) {
	fs.mu.Lock(ctx)
	f := fs.files[name]
	fs.mu.Unlock(ctx)
	if f == nil {
		return nil, vfs.ErrNotExist
	}
	f.snapMu.Lock()
	defer f.snapMu.Unlock()
	out := make([]SnapInfo, 0, len(f.snaps))
	for _, s := range f.snaps {
		info := SnapInfo{ID: SnapID(s.id), Size: s.size, Epoch: s.epoch}
		for n, ps := range f.pins {
			for _, p := range ps {
				if p.id >= s.id {
					info.Pins++
					if p.logOff != 0 && pinRefsLog(n.leaf, p.word) {
						info.PinnedBlocks += n.span / LeafSpan
					}
					break // smallest pin id >= s.id serves this snapshot
				}
			}
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// findSnapLocked returns the live snapshot with the given id; callers hold
// f.snapMu.
func (f *file) findSnapLocked(id uint64) *snapshot {
	for _, s := range f.snaps {
		if s.id == id {
			return s
		}
	}
	return nil
}

// cowPin freezes n's committed state for every live snapshot that can still
// see it. It MUST run before the calling operation commits any mutation of
// the node (word flip, log swap, lazy-clean zeroing): the pin record plus
// the block reference are all a snapshot reader needs, and the allocator
// reference count is what later writes consult to keep the zero-copy toggle
// fast path on unshared blocks. Idempotent per (node, newest snapshot).
// Lock order: callers may hold treeMu; cowPin takes only snapMu and the
// directory/allocator mutexes.
func (f *file) cowPin(ctx *sim.Ctx, n *node) {
	m := f.maxLiveSnap.Load()
	if m == 0 || n.recIdx < 0 || n.snapSeq.Load() >= m {
		return
	}
	if n.birth.Load() >= m {
		// Recorded after the newest snapshot: invisible to every live one.
		n.snapSeq.Store(m)
		return
	}
	f.snapMu.Lock()
	defer f.snapMu.Unlock()
	if n.snapSeq.Load() >= m {
		return
	}
	word := n.word.Load()
	logOff := n.logOff
	rec := f.fs.dir.create(ctx, packTag(f.pf.Slot(), f.spanExp(n.span), n.idx)|tagSnap,
		logOff, word, n.birth.Load(), m)
	if logOff != 0 && pinRefsLog(n.leaf, word) {
		f.fs.prov.Alloc().Ref(ctx, logOff, n.span/LeafSpan)
	}
	if f.pins == nil {
		f.pins = make(map[*node][]*pin)
	}
	f.pins[n] = append(f.pins[n], &pin{recIdx: rec, id: m, logOff: logOff, word: word})
	n.snapSeq.Store(m)
	f.fs.stats.SnapshotPins.Add(1)
}

// pinFor returns the pin serving snapshot sid on node n (the smallest pin id
// >= sid), or nil when the live state is the right view.
func (f *file) pinFor(n *node, sid uint64) *pin {
	f.snapMu.Lock()
	defer f.snapMu.Unlock()
	for _, p := range f.pins[n] {
		if p.id >= sid {
			return p
		}
	}
	return nil
}

// gcPinsLocked drops every pin no remaining snapshot needs: a pin survives
// only if it is some live snapshot's smallest pin id >= that snapshot's id.
// Callers hold f.snapMu. Nodes are visited in (span, idx) order, not map
// order: the retire stores are media ops, and the torture harness's serial
// replay mode needs the media-op stream to be a pure function of the op
// sequence.
func (f *file) gcPinsLocked(ctx *sim.Ctx) {
	nodes := make([]*node, 0, len(f.pins))
	for n := range f.pins {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool {
		if nodes[i].span != nodes[j].span {
			return nodes[i].span > nodes[j].span
		}
		return nodes[i].idx < nodes[j].idx
	})
	for _, n := range nodes {
		ps := f.pins[n]
		needed := make(map[*pin]bool, len(ps))
		for _, s := range f.snaps {
			for _, p := range ps { // ascending id
				if p.id >= s.id {
					needed[p] = true
					break
				}
			}
		}
		var kept []*pin
		for _, p := range ps {
			if needed[p] {
				kept = append(kept, p)
				continue
			}
			f.fs.dir.clear(ctx, p.recIdx)
			if p.logOff != 0 && pinRefsLog(n.leaf, p.word) {
				f.fs.prov.Alloc().Free(ctx, p.logOff, n.span/LeafSpan)
			}
		}
		if len(kept) == 0 {
			delete(f.pins, n)
		} else {
			f.pins[n] = kept
		}
	}
}
