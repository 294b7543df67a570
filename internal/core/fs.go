package core

import (
	"sync"
	"sync/atomic"

	"mgsp/internal/cache"
	"mgsp/internal/cleaner"
	"mgsp/internal/nvm"
	"mgsp/internal/obs"
	"mgsp/internal/pmfile"
	"mgsp/internal/sim"
	"mgsp/internal/vfs"
)

// metaLogEntries is the total metadata-log capacity: 64 per-worker home
// areas of 16 entries each (slot 0 of each area is its persistent cursor,
// see meta.go). 15 op slots per area comfortably cover one worker's
// longest chained commit plus a live snapshot mark or two.
const metaLogEntries = metaAreas * metaAreaSlots

// cleanerWorker is the sim worker id of the background cleaner's private
// context, far above any foreground worker id so lock bookings and media
// attribution never collide with user operations.
const cleanerWorker = 1 << 20

// MetaBytes returns the metadata reservation MGSP needs on a device of the
// given size: the lock-free metadata log, the checkpoint cell, plus the node
// directory (records for every possible leaf plus interior slack).
func MetaBytes(devSize int64) int64 {
	records := devSize/LeafSpan + devSize/LeafSpan/16 + 1024
	return int64((metaLogEntries+1)*entrySize) + records*recSize
}

// FS is a mounted MGSP instance.
type FS struct {
	prov  *pmfile.Provider
	dev   *nvm.Device
	costs *sim.Costs
	opts  Options

	dir     *directory
	mlog    *metaLog
	ckptOff int64 // device offset of the checkpoint cell

	opSeq atomic.Uint32 // group ids for chained metadata entries

	// epoch is the current cleaner epoch; committed metadata entries are
	// stamped with its low 8 bits so recovery can skip entries the checkpoint
	// already covers. Stays 0 (and is never persisted anywhere) while the
	// cleaner is disabled.
	epoch    atomic.Uint64
	inFlight atomic.Int64 // operations between claim and retire (quiesce)

	cleaner   *cleaner.Cleaner
	cleanGen  atomic.Int64 // cleaner pass generation, for node coldness
	cleanName string       // resume cursor: next file name ...
	cleanOff  int64        // ... and offset within it

	// pcache is the volatile write-through DRAM frame tier (nil when
	// CacheFrames is 0). It holds no persistent state: Mount always starts it
	// empty, so recovery is cache-independent by construction (DESIGN.md §13).
	// Frames are keyed by file incarnation (file.key), drawn from frameKeys.
	pcache    *cache.Pool
	frameKeys atomic.Int64

	// snapSeq is the global snapshot sequence: every snapshot takes a fresh
	// id from it, and every node record stores the value current at its
	// creation (birth). Volatile; Mount restores a value at least as large as
	// any persisted id, which is all monotonicity needs.
	snapSeq atomic.Uint64
	// snapAdmin serializes snapshot creation and drop across the FS (both are
	// rare control-plane operations; data-plane CoW never takes it).
	snapAdmin sim.Mutex

	mu    sim.Mutex
	files map[string]*file

	// optGate arms the optimistic lock-free read path (optread.go): set once
	// at mkFS under MGL, whose locks carry the node versions, so LockFile
	// pays nothing (writerEnter/writerExit return immediately).
	optGate bool

	stats Stats

	// Observability: one registry per FS (probes hold direct pointers; the
	// registry is only walked at snapshot time) plus the flight-recorder
	// trace ring. The histograms record virtual nanoseconds except
	// hProbeDist (metadata-log claim probe distance, in slots).
	obsReg     *obs.Registry
	trace      *obs.TraceRing
	hWrite     *obs.Histogram // fs.write_ns
	hRead      *obs.Histogram // fs.read_ns
	hFsync     *obs.Histogram // fs.fsync_ns
	hWritev    *obs.Histogram // fs.writev_ns
	hSnapshot  *obs.Histogram // fs.snapshot_ns
	hMGLAcq    *obs.Histogram // mgl.acquire_ns
	hProbeDist *obs.Histogram // mlog.probe_distance
	hMount     *obs.Histogram // recovery.mount_ns
	hCleanPass *obs.Histogram // cleaner.pass_ns
}

// New formats an MGSP file system over the device with the given options.
func New(dev *nvm.Device, opts Options) (*FS, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	prov := pmfile.New(dev, MetaBytes(dev.Size()))
	fs := mkFS(prov, opts)
	fs.invalidateCheckpointCell()
	return fs, nil
}

// invalidateCheckpointCell zeroes any leftover checkpoint header and
// directory high-water mark on a reused device: New formats a fresh file
// system, so a stale checkpoint would corrupt a later Mount. Fresh (all-zero)
// devices are left untouched, keeping cleaner-disabled runs bit-identical.
func (fs *FS) invalidateCheckpointCell() {
	dirty := false
	offs := []int64{ckptEpoch, ckptPasses, ckptReclaimed, ckptCksum, ckptDirHW}
	for _, o := range offs {
		if fs.dev.Load8(fs.ckptOff+o) != 0 {
			dirty = true
		}
	}
	if !dirty {
		return
	}
	ctx := sim.NewCtx(cleanerWorker, 0)
	for _, o := range offs {
		fs.dev.Store8(ctx, fs.ckptOff+o, 0)
	}
	fs.dev.Fence(ctx)
}

// MustNew is New for tests and benchmarks with known-good options.
func MustNew(dev *nvm.Device, opts Options) *FS {
	fs, err := New(dev, opts)
	if err != nil {
		panic(err)
	}
	return fs
}

func mkFS(prov *pmfile.Provider, opts Options) *FS {
	metaStart, metaSize := prov.MetaRegion()
	mlogBytes := int64(metaLogEntries * entrySize)
	ckptOff := metaStart + mlogBytes
	fs := &FS{
		prov:    prov,
		dev:     prov.Device(),
		costs:   prov.Costs(),
		opts:    opts,
		mlog:    newMetaLog(prov.Device(), metaStart, metaLogEntries),
		dir:     newDirectory(prov.Device(), ckptOff+entrySize, metaSize-mlogBytes-entrySize),
		ckptOff: ckptOff,
		files:   make(map[string]*file),
	}
	fs.dir.hwCell = ckptOff + ckptDirHW
	fs.optGate = opts.Locking == LockMGL
	fs.initObs()
	if opts.CleanerInterval > 0 {
		fs.dir.tracking = true
		cctx := sim.NewCtx(cleanerWorker, 0)
		cctx.Tally = &sim.MediaTally{}
		fs.cleaner = cleaner.New(fs, cleaner.Config{
			Interval: opts.CleanerInterval,
			Budget:   opts.CleanerBudget,
		}, cctx)
		fs.cleaner.Register(fs.obsReg, "cleaner.")
	}
	if opts.CacheFrames > 0 {
		fs.pcache = cache.New(opts.CacheFrames, LeafSpan)
		fs.pcache.Register(fs.obsReg, "cache.")
	}
	return fs
}

// traceRingSlots sizes the flight recorder: recent events kept per worker
// shard. Small on purpose — the ring is volatile diagnostic state, not a log.
const traceRingSlots = 256

// initObs builds the per-FS metric registry, trace ring, and latency
// histograms, then wires them to the stat structs the probes update: the
// core counters, the device's media counters (under "nvm."), the derived
// write-amplification ratio, and the metadata-log contention probes.
func (fs *FS) initObs() {
	r := obs.NewRegistry()
	fs.obsReg = r
	fs.trace = obs.NewTraceRing(traceRingSlots)
	fs.stats.register(r)
	fs.dev.Stats().Register(r, "nvm.")
	media := &fs.dev.Stats().MediaWriteBytes
	user := &fs.stats.UserWriteBytes
	r.RegisterFunc("wa.ratio", func() float64 {
		u := user.Load()
		if u == 0 {
			return 0
		}
		return float64(media.Load()) / float64(u)
	})
	fs.hWrite = r.Histogram("fs.write_ns")
	fs.hRead = r.Histogram("fs.read_ns")
	fs.hFsync = r.Histogram("fs.fsync_ns")
	fs.hWritev = r.Histogram("fs.writev_ns")
	fs.hSnapshot = r.Histogram("fs.snapshot_ns")
	fs.hMGLAcq = r.Histogram("mgl.acquire_ns")
	fs.hProbeDist = r.Histogram("mlog.probe_distance")
	fs.hMount = r.Histogram("recovery.mount_ns")
	fs.hCleanPass = r.Histogram("cleaner.pass_ns")
	fs.mlog.probeDist = fs.hProbeDist
	fs.mlog.casRetries = &fs.stats.MetaCASRetries
	fs.mlog.cursorWrites = &fs.stats.MetaCursorWrites
}

// Name implements vfs.FS.
func (fs *FS) Name() string { return "MGSP" }

// Device implements vfs.FS.
func (fs *FS) Device() *nvm.Device { return fs.dev }

// Options returns the configuration in effect.
func (fs *FS) Options() Options { return fs.opts }

// Cache returns the DRAM frame pool, nil when the cache tier is disabled.
func (fs *FS) Cache() *cache.Pool { return fs.pcache }

// Consistency implements vfs.Guarantees: every MGSP operation is a
// synchronized atomic operation (§IV-A).
func (fs *FS) Consistency() vfs.ConsistencyLevel { return vfs.OpAtomic }

// file is an MGSP-managed file: the pm file (whose mapping is the root
// log) plus the multi-granularity shadow log tree.
type file struct {
	fs   *FS
	pf   *pmfile.File
	name string

	root      atomic.Pointer[node]
	minSearch atomic.Pointer[node]

	treeMu sim.Mutex // tree structure growth, record/log creation
	sizeMu sim.Mutex // size extension
	size   atomic.Int64

	flock sim.RWMutex // used in LockFile mode

	// Sticky intention locks per worker (lazy intention cleaning), striped
	// by worker hash: the bookkeeping map is consulted on every MGL
	// acquisition, and a single mutex over it serializes all workers on the
	// file even when their lock sets are disjoint.
	intents [intentStripes]intentShard

	refs    atomic.Int32
	removed bool

	// key names this incarnation of the file's content in the frame tier.
	// Create-over and Truncate renew it inside their writer sections, and a
	// file that reuses a removed file's pm slot starts with a fresh one, so
	// frames filled or patched under an old key never answer a read again;
	// they age out through the clock.
	key atomic.Int64

	// Greedy-locking safety: greedy ops skip ancestor intentions, which is
	// only sound while exactly one worker uses the file. The first op seen
	// from a second worker permanently demotes the file to full MGL, after
	// draining any in-flight greedy op.
	lastWorker   atomic.Int64 // worker id + 1; 0 = none yet
	multiUser    atomic.Bool
	greedyActive atomic.Int64

	// cleanerBusy is nonzero while the background cleaner works on this
	// file's tree; greedy ops must then take real locks so the cleaner's
	// subtree try-locks actually exclude them.
	cleanerBusy atomic.Int64

	// Optimistic-read gate (optread.go): optWS/optWF count writer-section
	// enters/exits (unequal = a mutator is active), optRd counts registered
	// lock-free readers (writers drain it before mutating). Volatile DRAM
	// state, unmetered in virtual time.
	optWS, optWF, optRd atomic.Int64

	// maxLiveSnap is the newest live snapshot id of this file (0 = none).
	// Nonzero switches writes into copy-on-write mode: any committed mutation
	// of a recorded node pins the node's frozen state first, and overwrites
	// of valid units relocate to a fresh log block instead of toggling
	// through the (frozen) fallback.
	maxLiveSnap atomic.Uint64
	snapMu      sync.Mutex       // guards snaps and pins (taken after treeMu)
	snaps       []*snapshot      // live snapshots, ascending id
	pins        map[*node][]*pin // per-node frozen views, ascending pin id
}

// workerIntent tracks which intention modes a worker holds on a node.
type workerIntent struct{ ir, iw bool }

// intentStripes is the number of sticky-intent map shards per file (power
// of two). The map is keyed by worker, so worker-hash striping partitions
// it exactly: two workers on different stripes never contend.
const intentStripes = 8

// intentShard is one stripe of a file's sticky-intent bookkeeping.
type intentShard struct {
	mu sync.Mutex
	m  map[int]map[*node]*workerIntent
}

// intentShard returns the stripe owning worker's sticky intents.
func (f *file) intentShard(worker int) *intentShard {
	return &f.intents[sim.WorkerHash(worker)&(intentStripes-1)]
}

func (fs *FS) newFile(pf *pmfile.File, name string) *file {
	f := &file{fs: fs, pf: pf, name: name}
	for i := range f.intents {
		f.intents[i].m = make(map[int]map[*node]*workerIntent)
	}
	f.renewKey()
	return f
}

// renewKey gives the file a frame key no incarnation has used before; keys
// count from 0.
func (f *file) renewKey() { f.key.Store(f.fs.frameKeys.Add(1) - 1) }

// Create implements vfs.FS.
func (fs *FS) Create(ctx *sim.Ctx, name string) (vfs.File, error) {
	fs.mu.Lock(ctx)
	defer fs.mu.Unlock(ctx)
	if f := fs.files[name]; f != nil {
		if f.maxLiveSnap.Load() != 0 {
			// Truncating the tree would destroy the pinned views.
			return nil, ErrHasSnapshots
		}
		if fs.cleaner != nil {
			// The cleaner walks the tree under sizeMu; discarding it out from
			// underneath would free logs mid-walk.
			f.sizeMu.Lock(ctx)
			defer f.sizeMu.Unlock(ctx)
		}
		f.discardTree(ctx)
		if _, err := fs.prov.Create(ctx, name); err != nil {
			return nil, err
		}
		f.size.Store(0)
		f.refs.Add(1)
		return &handle{f: f}, nil
	}
	pf, err := fs.prov.Create(ctx, name)
	if err != nil {
		return nil, err
	}
	f := fs.newFile(pf, name)
	fs.files[name] = f
	f.refs.Add(1)
	return &handle{f: f}, nil
}

// Open implements vfs.FS.
func (fs *FS) Open(ctx *sim.Ctx, name string) (vfs.File, error) {
	fs.mu.Lock(ctx)
	defer fs.mu.Unlock(ctx)
	f := fs.files[name]
	if f == nil {
		return nil, vfs.ErrNotExist
	}
	ctx.Advance(fs.costs.Syscall + fs.costs.VFSOp) // open + mmap setup
	f.refs.Add(1)
	return &handle{f: f}, nil
}

// Remove implements vfs.FS.
func (fs *FS) Remove(ctx *sim.Ctx, name string) error {
	fs.mu.Lock(ctx)
	defer fs.mu.Unlock(ctx)
	f := fs.files[name]
	if f == nil {
		return vfs.ErrNotExist
	}
	if f.maxLiveSnap.Load() != 0 {
		return ErrHasSnapshots
	}
	delete(fs.files, name)
	f.removed = true
	if f.refs.Load() == 0 {
		f.discardTree(ctx)
	}
	return fs.prov.Remove(ctx, name)
}

// discardTree releases every node's log and record without write-back
// (truncate/remove paths; Close uses writeback instead).
func (f *file) discardTree(ctx *sim.Ctx) {
	// Discard holds no node locks; drain optimistic readers so none copies
	// from a log block being freed.
	f.writerEnter()
	defer f.writerExit()
	if r := f.root.Load(); r != nil {
		f.releaseSubtree(ctx, r)
	}
	f.root.Store(nil)
	f.minSearch.Store(nil)
	f.releaseAllIntents(ctx)
	f.renewKey()
}

// releaseSubtree retires every record at and below n and frees each log as
// soon as its own record is gone.
func (f *file) releaseSubtree(ctx *sim.Ctx, n *node) {
	f.retireRecords(ctx, n, func(n *node) {
		f.fs.prov.Alloc().Free(ctx, n.logOff, n.span/LeafSpan)
	})
}

// retireRecords clears the directory record of every node at and below n,
// passing each node that owns a log to release after its record is cleared.
// Callers have already copied the subtree's live content to its fallback
// (the file, or a valid ancestor's log) and fenced, and Store8 persists in
// call order, so the order of the clears is what a crash can observe. It
// must never expose bytes the fallback has superseded:
//
//   - a node whose existing bit is set is transparent: its descendants'
//     valid bits are live and override its own log, so it goes first — the
//     other way round a cleared child would fall back to this node's older
//     log instead of the fallback;
//   - a node whose existing bit is clear is a cut: it hides descendants
//     whose valid bits are stale (lazy cleaning), so it goes last — cleared
//     first, recovery would make it transparent and serve those bits.
func (f *file) retireRecords(ctx *sim.Ctx, n *node, release func(*node)) {
	cut := !n.leaf && !n.existing()
	if !cut {
		f.retireRecord(ctx, n, release)
	}
	for i := range n.children {
		if c := n.children[i].Load(); c != nil {
			f.retireRecords(ctx, c, release)
		}
	}
	if cut {
		f.retireRecord(ctx, n, release)
	}
}

func (f *file) retireRecord(ctx *sim.Ctx, n *node, release func(*node)) {
	if idx := n.recIdx.Load(); idx >= 0 {
		f.fs.dir.clear(ctx, idx)
		n.recIdx.Store(-1)
	}
	if n.logOff != 0 {
		release(n)
		n.logOff = 0
	}
	n.word.Store(0)
	n.stale.Store(false)
}

// releaseAllIntents drops every worker's sticky intention locks (file close).
func (f *file) releaseAllIntents(ctx *sim.Ctx) {
	for i := range f.intents {
		sh := &f.intents[i]
		sh.mu.Lock()
		for w, m := range sh.m {
			for n, wi := range m {
				if wi.ir {
					n.lock.Unlock(ctx, lockIR)
				}
				if wi.iw {
					n.lock.Unlock(ctx, lockIW)
				}
			}
			delete(sh.m, w)
		}
		sh.mu.Unlock()
	}
}

// handle is an open MGSP descriptor.
type handle struct {
	f      *file
	closed bool
}

var _ vfs.File = (*handle)(nil)

// Size implements vfs.File.
func (h *handle) Size() int64 { return h.f.size.Load() }

// Fsync implements vfs.File: MGSP operations are already synchronized
// atomic operations, so fsync has nothing to persist (§IV, Figure 7).
func (h *handle) Fsync(ctx *sim.Ctx) error {
	if h.closed {
		return vfs.ErrClosed
	}
	fs := h.f.fs
	start := ctx.Now()
	fs.dev.Fence(ctx)
	dur := ctx.Now() - start
	fs.hFsync.Observe(dur)
	fs.trace.Record(ctx.ID, obs.OpFsync, h.f.pf.Slot(), 0, 0, dur)
	return nil
}

// Close implements vfs.File. When the last handle closes, all shadow logs
// are written back into the file and the metadata is released (§III-D) —
// including the logs of a tree Mount kept after a crash.
func (h *handle) Close(ctx *sim.Ctx) error {
	if h.closed {
		return vfs.ErrClosed
	}
	h.closed = true
	f := h.f
	ctx.Advance(f.fs.costs.Syscall)
	f.fs.mu.Lock(ctx)
	defer f.fs.mu.Unlock(ctx)
	if f.refs.Add(-1) == 0 {
		f.lastRefGone(ctx)
	}
	return nil
}

// lastRefGone runs the last-reference work: discard for removed files,
// write-back otherwise. Callers hold fs.mu.
func (f *file) lastRefGone(ctx *sim.Ctx) {
	if f.removed {
		f.discardTree(ctx)
	} else {
		f.writeback(ctx)
	}
}

// Truncate implements vfs.File.
func (h *handle) Truncate(ctx *sim.Ctx, size int64) error {
	if h.closed {
		return vfs.ErrClosed
	}
	f := h.f
	if f.maxLiveSnap.Load() != 0 {
		return ErrHasSnapshots
	}
	ctx.Advance(f.fs.costs.Syscall + f.fs.costs.VFSOp)
	// Truncate mutates outside node locks (discard/write-back, size, file
	// zeroing); drain optimistic readers for the whole section. The nested
	// enters from discardTree/writeback below pair up harmlessly.
	f.writerEnter()
	defer f.writerExit()
	f.sizeMu.Lock(ctx)
	defer f.sizeMu.Unlock(ctx)
	old := f.size.Load()
	switch {
	case size == 0 && old > 0:
		// Truncate-to-zero (e.g. a WAL reset): every log is superseded, so
		// discard the tree outright — no write-back needed.
		f.discardTree(ctx)
		f.pf.MarkUnwritten(0)
	case size < old:
		// Partial shrink: write back then zero the vacated range so later
		// growth exposes no stale bytes. Rare control-plane op; the simple
		// full write-back keeps the tree and file coherent.
		f.writeback(ctx)
		if err := f.pf.EnsureCapacity(ctx, old); err != nil {
			return err
		}
		blockEnd := (size + LeafSpan - 1) / LeafSpan * LeafSpan
		if blockEnd > old {
			blockEnd = old
		}
		if blockEnd > size {
			f.pf.DirectWrite(ctx, make([]byte, blockEnd-size), size)
			// The zeros must be durable before the size word below commits
			// the shrink: a crash between the two would otherwise recover the
			// new size over stale tail bytes that a later growth re-exposes.
			f.pf.Fence(ctx)
		}
		f.pf.MarkUnwritten((size + LeafSpan - 1) / LeafSpan)
	}
	f.size.Store(size)
	f.pf.SetSize(ctx, size)
	// Frames of vacated blocks are stale: a later regrowth must read zeros.
	f.renewKey()
	return nil
}

func (h *handle) guard() error {
	if h.closed {
		return vfs.ErrClosed
	}
	return nil
}
