// Package libnvmmio simulates Libnvmmio (Choi et al., USENIX ATC'20), the
// user-space failure-atomic MMIO library the paper uses as its closest
// baseline. The behaviours the paper's evaluation depends on are modeled:
//
//   - user-space data plane over a DAX mapping (no syscalls on read/write);
//   - per-4KiB-block logs indexed by a per-file radix, holding *differential*
//     data at 64-byte-unit granularity, so fine writes log only the delta;
//   - hybrid logging: write-dominant blocks use redo logs (reads must merge
//     log and file), read-dominant blocks switch to undo logs (old data is
//     copied to the log, the new data is written in place);
//   - fsync commits the epoch and checkpoints every dirty block of the file
//     back to its home location — the double write that frequent syncs expose
//     (Figure 7, Table II), on the critical path because the foreground
//     thread must do it (concurrent fsyncs serialize on the checkpoint lock,
//     the foreground/background conflict of Figures 9 and 10);
//   - crash consistency at fsync granularity (SyncAtomic): committed epochs
//     are replayed at recovery, uncommitted redo logs are discarded, and
//     uncommitted undo logs are rolled back.
//
// The real library's background checkpoint threads are modeled by the
// log-pressure drain (see logPressure): with no syncs the logs simply absorb
// writes (write amplification ~1, Table II row "Libnvmmio-wo-sync").
package libnvmmio

import (
	"fmt"
	"sync"
	"sync/atomic"

	"mgsp/internal/nvm"
	"mgsp/internal/pmfile"
	"mgsp/internal/sim"
	"mgsp/internal/vfs"
)

const (
	blockSize = 4096
	unitSize  = 64
	unitsPer  = blockSize / unitSize // 64 units -> one uint64 mask

	headerSize = 64
	// Header word offsets within a block header.
	hdrTag   = 0  // inuse(1) | fileSlot(15) | pgidx(48)
	hdrMask  = 8  // valid 64-byte units in the log block
	hdrEpoch = 16 // undoFlag(1) | epoch(63)

	undoFlag = uint64(1) << 63

	// logPressure bounds outstanding dirty blocks per file; beyond it the
	// writer drains (checkpoints) inline, a backstop against log-space
	// exhaustion. It is sized so that sync-free runs absorb writes in the
	// log (write amplification ~1, as the paper's Table II measures for
	// Libnvmmio without sync) — the real library's background threads drain
	// lazily enough that a 10-second run never writes back.
	logPressure = 1 << 18
)

// FS is a mounted Libnvmmio instance.
type FS struct {
	prov  *pmfile.Provider
	dev   *nvm.Device
	costs *sim.Costs

	hdrBase   int64 // header array: one 64 B slot per data block
	epochBase int64 // per-file-slot committed epoch words
	dataStart int64

	mu    sim.Mutex
	files map[string]*file
}

// MetaBytes returns the metadata reservation Libnvmmio needs on a device of
// the given size (block headers + per-file epochs).
func MetaBytes(devSize int64) int64 {
	return devSize/blockSize*headerSize + pmfile.PageSize
}

// New formats a Libnvmmio file system over the device.
func New(dev *nvm.Device) *FS {
	prov := pmfile.New(dev, MetaBytes(dev.Size()))
	return mkFS(prov)
}

func mkFS(prov *pmfile.Provider) *FS {
	metaStart, _ := prov.MetaRegion()
	return &FS{
		prov:      prov,
		dev:       prov.Device(),
		costs:     prov.Costs(),
		epochBase: metaStart,
		hdrBase:   metaStart + pmfile.PageSize,
		dataStart: prov.DataStart(),
		files:     make(map[string]*file),
	}
}

// Name implements vfs.FS.
func (fs *FS) Name() string { return "Libnvmmio" }

// Device implements vfs.FS.
func (fs *FS) Device() *nvm.Device { return fs.dev }

// Consistency implements vfs.Guarantees.
func (fs *FS) Consistency() vfs.ConsistencyLevel { return vfs.SyncAtomic }

func (fs *FS) headerOff(blockOff int64) int64 {
	return fs.hdrBase + (blockOff-fs.dataStart)/blockSize*headerSize
}

func (fs *FS) epochOff(slot int) int64 { return fs.epochBase + int64(slot)*8 }

// blockLog is the per-4K-block log state.
type blockLog struct {
	lock   sim.RWMutex
	logOff int64
	pgidx  int64
	mask   uint64 // volatile mirror of the persistent mask
	undo   bool
	epoch  uint64
	reads  atomic.Int64
	writes atomic.Int64
}

type file struct {
	fs *FS
	pf *pmfile.File

	idxLock sim.RWMutex // radix index lock
	index   map[int64]*blockLog

	ckptMu sim.Mutex // serializes checkpoints (fg/bg conflict point)

	dirtyMu sync.Mutex // guards the dirty set only (never held with locks)
	dirty   map[int64]*blockLog

	sizeMu sim.Mutex    // serializes size extension
	size   atomic.Int64 // volatile mirror of the persisted size

	epoch atomic.Uint64 // current (uncommitted) epoch

	refs    int
	removed bool
}

// ---- vfs.FS ----

// Create implements vfs.FS.
func (fs *FS) Create(ctx *sim.Ctx, name string) (vfs.File, error) {
	fs.mu.Lock(ctx)
	defer fs.mu.Unlock(ctx)
	if f := fs.files[name]; f != nil {
		f.ckptMu.Lock(ctx)
		f.discardLogsLocked(ctx)
		f.ckptMu.Unlock(ctx)
		if _, err := fs.prov.Create(ctx, name); err != nil { // truncates
			return nil, err
		}
		f.size.Store(0)
		f.refs++
		return &handle{f: f}, nil
	}
	pf, err := fs.prov.Create(ctx, name)
	if err != nil {
		return nil, err
	}
	f := &file{
		fs: fs, pf: pf,
		index: make(map[int64]*blockLog),
		dirty: make(map[int64]*blockLog),
	}
	f.epoch.Store(1)
	fs.files[name] = f
	f.refs++
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
	f.refs++
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
	delete(fs.files, name)
	f.removed = true
	if f.refs == 0 {
		f.ckptMu.Lock(ctx)
		f.discardLogsLocked(ctx)
		f.ckptMu.Unlock(ctx)
	}
	return fs.prov.Remove(ctx, name)
}

// discardLogsLocked drops every log block without applying it.
func (f *file) discardLogsLocked(ctx *sim.Ctx) {
	for pg, bl := range f.index {
		bl.lock.Lock(ctx)
		if bl.mask != 0 {
			f.fs.dev.Store8(ctx, f.fs.headerOff(bl.logOff)+hdrMask, 0)
			bl.mask = 0
		}
		f.fs.dev.Store8(ctx, f.fs.headerOff(bl.logOff)+hdrTag, 0)
		f.fs.prov.Alloc().Free(ctx, bl.logOff, 1)
		bl.lock.Unlock(ctx)
		delete(f.index, pg)
	}
	f.dirtyMu.Lock()
	f.dirty = make(map[int64]*blockLog)
	f.dirtyMu.Unlock()
}

// lookup returns the block log for page pg, creating it if create is set.
func (f *file) lookup(ctx *sim.Ctx, pg int64, create bool) (*blockLog, error) {
	ctx.Advance(f.fs.costs.IndexStep * 4) // radix descent
	f.idxLock.RLock(ctx)
	bl := f.index[pg]
	f.idxLock.RUnlock(ctx)
	if bl != nil || !create {
		return bl, nil
	}
	f.idxLock.Lock(ctx)
	defer f.idxLock.Unlock(ctx)
	if bl = f.index[pg]; bl != nil {
		return bl, nil
	}
	logOff, err := f.fs.prov.Alloc().Alloc(ctx)
	if err != nil {
		return nil, err
	}
	bl = &blockLog{logOff: logOff, pgidx: pg, epoch: f.epoch.Load()}
	hdr := f.fs.headerOff(logOff)
	tag := uint64(1)<<62 | uint64(f.pf.Slot())<<48 | uint64(pg)
	f.fs.dev.Store8(ctx, hdr+hdrMask, 0)
	f.fs.dev.Store8(ctx, hdr+hdrEpoch, bl.epoch)
	f.fs.dev.Store8(ctx, hdr+hdrTag, tag)
	f.index[pg] = bl
	return bl, nil
}

// handle is an open descriptor.
type handle struct {
	f      *file
	closed bool
}

var _ vfs.File = (*handle)(nil)

// Size implements vfs.File.
func (h *handle) Size() int64 { return h.f.size.Load() }

// Close implements vfs.File. Closing the last handle checkpoints the logs
// (Libnvmmio flushes on munmap/close).
func (h *handle) Close(ctx *sim.Ctx) error {
	if h.closed {
		return vfs.ErrClosed
	}
	h.closed = true
	fs := h.f.fs
	ctx.Advance(fs.costs.Syscall)
	fs.mu.Lock(ctx)
	defer fs.mu.Unlock(ctx)
	h.f.refs--
	if h.f.refs == 0 {
		h.f.checkpoint(ctx, true)
	}
	return nil
}

// Truncate implements vfs.File.
func (h *handle) Truncate(ctx *sim.Ctx, size int64) error {
	if h.closed {
		return vfs.ErrClosed
	}
	f := h.f
	ctx.Advance(f.fs.costs.Syscall + f.fs.costs.VFSOp) // ftruncate
	// Commit outstanding logs first so in-place state is authoritative,
	// then adjust size; growth reads as zeros via unwritten-extent tracking
	// plus explicit zeroing of the partial tail block.
	f.checkpoint(ctx, true)
	f.sizeMu.Lock(ctx)
	defer f.sizeMu.Unlock(ctx)
	old := f.size.Load()
	if size < old {
		// Zero the stale tail of the block containing the new EOF and
		// hole-punch every block wholly beyond it, so a later extension
		// exposes no old bytes.
		if in := size % blockSize; in != 0 {
			end := size - in + blockSize
			if end > old {
				end = old
			}
			if end > size {
				if err := f.pf.EnsureCapacity(ctx, end); err != nil {
					return err
				}
				f.pf.DirectWrite(ctx, make([]byte, end-size), size)
				// Zeros durable before the size word commits the shrink:
				// otherwise a crash recovers the new size over stale tail
				// bytes that a later extension re-exposes.
				f.pf.Fence(ctx)
			}
		}
		f.pf.MarkUnwritten((size + blockSize - 1) / blockSize)
	}
	f.size.Store(size)
	f.pf.SetSize(ctx, size)
	return nil
}

func (h *handle) guard() error {
	if h.closed {
		return vfs.ErrClosed
	}
	return nil
}

// WriteAt implements vfs.File.
func (h *handle) WriteAt(ctx *sim.Ctx, p []byte, off int64) (int, error) {
	if err := h.guard(); err != nil {
		return 0, err
	}
	if err := vfs.CheckWrite(off, len(p)); err != nil {
		return 0, fmt.Errorf("libnvmmio: %w", err)
	}
	if len(p) == 0 {
		return 0, nil
	}
	f := h.f
	end := off + int64(len(p))
	if err := f.pf.EnsureCapacity(ctx, end); err != nil {
		return 0, err
	}

	for cur := off; cur < end; {
		pg := cur / blockSize
		hi := (pg + 1) * blockSize
		if hi > end {
			hi = end
		}
		if err := f.writeBlock(ctx, p[cur-off:hi-off], pg, cur); err != nil {
			return int(cur - off), err
		}
		cur = hi
	}

	if end > f.size.Load() {
		f.sizeMu.Lock(ctx)
		if end > f.size.Load() {
			f.size.Store(end)
			f.pf.SetSize(ctx, end)
		}
		f.sizeMu.Unlock(ctx)
	}

	f.maybeDrain(ctx)
	return len(p), nil
}

// writeBlock logs (or writes through, for undo blocks) the bytes p landing
// in block pg starting at absolute offset off.
func (f *file) writeBlock(ctx *sim.Ctx, p []byte, pg, off int64) error {
	bl, err := f.lookup(ctx, pg, true)
	if err != nil {
		return err
	}
	bl.lock.Lock(ctx)
	defer bl.lock.Unlock(ctx)
	bl.writes.Add(1)

	// Hybrid policy: choose per block while its log is empty.
	if bl.mask == 0 {
		bl.undo = bl.reads.Load() > bl.writes.Load()
	}

	blockStart := pg * blockSize
	u0 := (off - blockStart) / unitSize
	u1 := (off + int64(len(p)) - 1 - blockStart) / unitSize
	var rangeMask uint64
	for u := u0; u <= u1; u++ {
		rangeMask |= 1 << uint(u)
	}

	hdr := f.fs.headerOff(bl.logOff)
	if bl.undo {
		// Undo: preserve the units about to be overwritten (once per
		// epoch), then write the new data in place.
		toSave := rangeMask &^ bl.mask
		if toSave != 0 {
			f.copyUnits(ctx, toSave, f.pf, blockStart, bl.logOff, true)
			bl.mask |= toSave
			f.fs.dev.Store8(ctx, hdr+hdrMask, bl.mask)
		}
		f.stampEpoch(ctx, bl, hdr, true)
		f.fs.dev.Fence(ctx)
		f.pf.DirectWrite(ctx, p, off)
		f.fs.dev.Fence(ctx)
	} else {
		// Redo: differential log write. Boundary units not fully covered
		// must be completed from the log (if present) or the file so the
		// log holds whole valid units.
		f.mergeIntoLog(ctx, bl, p, off, u0, u1, rangeMask)
		bl.mask |= rangeMask
		f.fs.dev.Store8(ctx, hdr+hdrMask, bl.mask)
		f.stampEpoch(ctx, bl, hdr, false)
		f.fs.dev.Fence(ctx)
	}

	f.markDirty(ctx, bl)
	return nil
}

func (f *file) stampEpoch(ctx *sim.Ctx, bl *blockLog, hdr int64, undo bool) {
	e := f.epoch.Load()
	w := e
	if undo {
		w |= undoFlag
	}
	if bl.epoch != e || (bl.undo != undo) {
		f.fs.dev.Store8(ctx, hdr+hdrEpoch, w)
		bl.epoch = e
	}
}

// mergeIntoLog writes p into the redo log block, completing partially
// covered boundary units from the existing log or the file.
func (f *file) mergeIntoLog(ctx *sim.Ctx, bl *blockLog, p []byte, off, u0, u1 int64, rangeMask uint64) {
	blockStart := bl.pgidx * blockSize
	lo := u0 * unitSize // block-relative
	hi := (u1 + 1) * unitSize
	buf := make([]byte, hi-lo)

	fileEnd := f.size.Load() // bytes beyond EOF read as zero
	fill := func(u int64) {  // complete one boundary unit into buf
		uStart := u * unitSize
		dst := buf[uStart-lo : uStart-lo+unitSize]
		if bl.mask&(1<<uint(u)) != 0 {
			f.fs.dev.Read(ctx, dst, bl.logOff+uStart)
		} else if abs := blockStart + uStart; abs < fileEnd {
			f.pf.DirectRead(ctx, dst, abs)
		} // else: zeros
	}
	writeLo := off - blockStart
	writeHi := writeLo + int64(len(p))
	if writeLo > lo {
		fill(u0)
	}
	if writeHi < hi && u1 != u0 {
		fill(u1)
	} else if writeHi < hi && writeLo <= lo {
		fill(u1) // single unit, partially covered at the tail
	}
	copy(buf[writeLo-lo:], p)
	f.fs.dev.WriteNT(ctx, buf, bl.logOff+lo)
	// The log units must be durable before the caller's mask/epoch store
	// marks them valid — recovery replays any unit the mask covers.
	f.fs.dev.Fence(ctx)
}

// copyUnits copies masked units between the file block and the log block.
// fromFile selects direction: file->log (undo save) or log->file
// (checkpoint apply / rollback).
func (f *file) copyUnits(ctx *sim.Ctx, mask uint64, pf *pmfile.File, blockStart, logOff int64, fromFile bool) {
	fileEnd := pf.Size()
	for u := int64(0); u < unitsPer; u++ {
		if mask&(1<<uint(u)) == 0 {
			continue
		}
		// Coalesce the run of set bits for one transfer.
		run := u
		for run+1 < unitsPer && mask&(1<<uint(run+1)) != 0 {
			run++
		}
		n := (run - u + 1) * unitSize
		buf := make([]byte, n)
		if fromFile {
			if abs := blockStart + u*unitSize; abs < fileEnd {
				pf.DirectRead(ctx, buf, abs)
			}
			f.fs.dev.WriteNT(ctx, buf, logOff+u*unitSize)
		} else {
			f.fs.dev.Read(ctx, buf, logOff+u*unitSize)
			pf.DirectWrite(ctx, buf, blockStart+u*unitSize)
		}
		u = run
	}
	// Copied units durable before the caller commits: the undo save must be
	// on media before the mask claims it, and a checkpoint apply must be on
	// media before the mask clear discards the log it came from.
	f.fs.dev.Fence(ctx)
}

func (f *file) markDirty(ctx *sim.Ctx, bl *blockLog) {
	ctx.Advance(f.fs.costs.Atomic)
	f.dirtyMu.Lock()
	f.dirty[bl.pgidx] = bl
	f.dirtyMu.Unlock()
}

// maybeDrain checkpoints inline when the log grows past the pressure limit —
// the stand-in for background checkpoint threads.
func (f *file) maybeDrain(ctx *sim.Ctx) {
	f.dirtyMu.Lock()
	over := len(f.dirty) > logPressure
	f.dirtyMu.Unlock()
	if over {
		f.checkpoint(ctx, false)
	}
}

// ReadAt implements vfs.File.
func (h *handle) ReadAt(ctx *sim.Ctx, p []byte, off int64) (int, error) {
	if err := h.guard(); err != nil {
		return 0, err
	}
	if off < 0 {
		return 0, fmt.Errorf("libnvmmio: negative offset %d", off)
	}
	f := h.f
	size := f.size.Load()
	if off >= size {
		return 0, nil
	}
	n := len(p)
	if int64(n) > size-off {
		n = int(size - off)
	}
	for cur := off; cur < off+int64(n); {
		pg := cur / blockSize
		hi := (pg + 1) * blockSize
		if hi > off+int64(n) {
			hi = off + int64(n)
		}
		f.readBlock(ctx, p[cur-off:hi-off], pg, cur)
		cur = hi
	}
	return n, nil
}

func (f *file) readBlock(ctx *sim.Ctx, p []byte, pg, off int64) {
	bl, _ := f.lookup(ctx, pg, false)
	if bl == nil {
		f.pf.DirectRead(ctx, p, off)
		return
	}
	bl.reads.Add(1)
	bl.lock.RLock(ctx)
	defer bl.lock.RUnlock(ctx)
	if bl.mask == 0 || bl.undo {
		// Undo blocks keep the newest data in place.
		f.pf.DirectRead(ctx, p, off)
		return
	}
	// Redo merge: serve each unit from the log when logged, else the file.
	blockStart := pg * blockSize
	for i := 0; i < len(p); {
		abs := off + int64(i)
		u := (abs - blockStart) / unitSize
		chunk := int(unitSize - (abs-blockStart)%unitSize)
		if chunk > len(p)-i {
			chunk = len(p) - i
		}
		inLog := bl.mask&(1<<uint(u)) != 0
		// Extend the chunk across units with the same source.
		for {
			nu := (abs + int64(chunk) - blockStart)
			if nu >= blockSize || i+chunk >= len(p) {
				break
			}
			next := nu / unitSize
			if (bl.mask&(1<<uint(next)) != 0) != inLog {
				break
			}
			ext := unitSize
			if ext > len(p)-i-chunk {
				ext = len(p) - i - chunk
			}
			chunk += ext
		}
		if inLog {
			f.fs.dev.Read(ctx, p[i:i+chunk], bl.logOff+(abs-blockStart))
		} else {
			f.pf.DirectRead(ctx, p[i:i+chunk], abs)
		}
		i += chunk
	}
}

// Fsync implements vfs.File: commit the epoch and checkpoint (Libnvmmio's
// sync-triggered write-back, the double write on the critical path).
func (h *handle) Fsync(ctx *sim.Ctx) error {
	if err := h.guard(); err != nil {
		return err
	}
	h.f.checkpoint(ctx, true)
	return nil
}

// checkpoint publishes the current epoch as committed, then applies every
// dirty redo log to the file and discards undo logs.
func (f *file) checkpoint(ctx *sim.Ctx, commit bool) {
	f.ckptMu.Lock(ctx)
	defer f.ckptMu.Unlock(ctx)
	if commit {
		f.fs.dev.Store8(ctx, f.fs.epochOff(f.pf.Slot()), f.epoch.Load())
	}
	// Snapshot and clear the dirty set without holding block locks (a
	// writer holding a block lock may be adding to the set concurrently).
	f.dirtyMu.Lock()
	snapshot := f.dirty
	f.dirty = make(map[int64]*blockLog, len(snapshot))
	f.dirtyMu.Unlock()
	if len(snapshot) == 0 {
		if commit {
			f.epoch.Add(1)
		}
		return
	}
	for pg, bl := range snapshot {
		bl.lock.Lock(ctx)
		if bl.mask != 0 {
			if !bl.undo {
				f.copyUnits(ctx, bl.mask, f.pf, pg*blockSize, bl.logOff, false)
			}
			bl.mask = 0
			f.fs.dev.Store8(ctx, f.fs.headerOff(bl.logOff)+hdrMask, 0)
		}
		bl.lock.Unlock(ctx)
	}
	f.fs.dev.Fence(ctx)
	if commit {
		f.epoch.Add(1)
	}
}
