// Package nova simulates NOVA (Xu & Swanson, FAST'16), the kernel-space
// log-structured NVM file system the paper uses as its strong-consistency
// baseline. The properties the evaluation depends on are modeled faithfully:
//
//   - per-inode logs: every write appends a 64-byte entry describing the new
//     data pages and commits by atomically updating the 8-byte log tail, so
//     each operation is failure-atomic without fsync;
//   - copy-on-write data: writes allocate fresh 4 KiB pages; sub-page writes
//     read-modify-copy the old page, which is NOVA's write amplification on
//     fine-grained updates (Figure 8, Figure 13);
//   - a DRAM radix per inode maps logical pages to blocks, rebuilt from the
//     persistent log at mount/recovery (NOVA keeps allocator state volatile);
//   - writes to one inode serialize on the inode log lock (Figure 10).
//
// Operations still pay the kernel round-trip costs (NOVA is a kernel FS),
// though its log-structured read/write paths are considerably thinner than
// ext4's iomap/page-cache machinery (half the in-kernel VFS overhead here).
package nova

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"mgsp/internal/alloc"
	"mgsp/internal/nvm"
	"mgsp/internal/sim"
	"mgsp/internal/vfs"
)

const (
	pageSize = 4096

	// Persistent layout: a directory table of inode slots at the device
	// start, then the block region for data and log pages.
	slotSize = 64
	maxFiles = 1024
	dirSize  = maxFiles * slotSize

	// Log entries.
	entrySize       = 64
	entriesPerPage  = pageSize/entrySize - 1 // last slot holds the next-page pointer
	nextPtrOffset   = int64(entriesPerPage * entrySize)
	entryTypeWrite  = 1
	entryTypeSetLen = 2
)

// FS is a mounted NOVA instance.
type FS struct {
	dev   *nvm.Device
	costs *sim.Costs
	alloc *alloc.Allocator

	mu    sim.Mutex // namespace lock
	files map[string]*inode
	slots []bool // directory slot usage
}

// New formats a fresh NOVA file system over the device.
func New(dev *nvm.Device) *FS {
	return &FS{
		dev:   dev,
		costs: dev.Costs(),
		alloc: alloc.New(dirSize, dev.Size()-dirSize, pageSize, dev.Costs()),
		files: make(map[string]*inode),
		slots: make([]bool, maxFiles),
	}
}

// Name implements vfs.FS.
func (fs *FS) Name() string { return "NOVA" }

// Device implements vfs.FS.
func (fs *FS) Device() *nvm.Device { return fs.dev }

// Consistency implements vfs.Guarantees: every NOVA operation is atomic and
// synchronous.
func (fs *FS) Consistency() vfs.ConsistencyLevel { return vfs.OpAtomic }

type inode struct {
	fs   *FS
	name string
	slot int

	lock sim.RWMutex // guards log appends and the radix

	size     int64
	pages    map[int64]int64 // logical page -> device offset (DRAM radix)
	logHead  int64           // device offset of first log page
	logTail  int64           // device offset of next free entry
	logPages int64           // chain length (GC trigger)
	refs     int
	removed  bool
}

// ---- directory slots (persistent) ----
//
// Slot layout (64 B): flags(8) logRef(8) nameLen(8) name(40).
// flags: 0 = free, 1 = live. logRef packs the log head page index (upper
// 24 bits) and the tail byte offset (lower 40 bits) into one word, so both
// ordinary commits AND whole-chain switches (log GC) publish with a single
// atomic store.

const (
	slotFlags   = 0
	slotLogRef  = 8
	slotNameLen = 16
	slotName    = 24 // 40 bytes of name
)

// packRef combines the head page and tail offset; unpackRef reverses it.
func packRef(head, tail int64) uint64 {
	return uint64(head/pageSize)<<40 | uint64(tail)
}

func unpackRef(ref uint64) (head, tail int64) {
	return int64(ref>>40) * pageSize, int64(ref & (1<<40 - 1))
}

func (fs *FS) slotOff(slot int) int64 { return int64(slot) * slotSize }

func (fs *FS) writeSlot(ctx *sim.Ctx, ino *inode) {
	off := fs.slotOff(ino.slot)
	var buf [slotSize]byte
	binary.LittleEndian.PutUint64(buf[slotFlags:], 1)
	binary.LittleEndian.PutUint64(buf[slotLogRef:], packRef(ino.logHead, ino.logTail))
	name := ino.name
	if len(name) > slotSize-slotName {
		name = name[:slotSize-slotName]
	}
	binary.LittleEndian.PutUint64(buf[slotNameLen:], uint64(len(name)))
	copy(buf[slotName:], name)
	fs.dev.WriteNT(ctx, buf[:], off)
	fs.dev.Fence(ctx)
}

func (fs *FS) clearSlot(ctx *sim.Ctx, slot int) {
	fs.dev.Store8(ctx, fs.slotOff(slot)+slotFlags, 0)
}

// commitTail atomically publishes the new log reference — the 8-byte atomic
// update that makes each NOVA operation failure-atomic (and that log GC
// reuses to switch whole chains).
func (ino *inode) commitTail(ctx *sim.Ctx) {
	ino.fs.dev.Store8(ctx, ino.fs.slotOff(ino.slot)+slotLogRef, packRef(ino.logHead, ino.logTail))
}

// ---- log entries ----

type logEntry struct {
	kind    uint32
	pgoff   int64 // first logical page
	npages  int64
	block   int64 // device offset of first data page (contiguous run)
	newSize int64
}

func (e *logEntry) encode() [entrySize]byte {
	var b [entrySize]byte
	binary.LittleEndian.PutUint32(b[0:], e.kind)
	binary.LittleEndian.PutUint64(b[8:], uint64(e.pgoff))
	binary.LittleEndian.PutUint64(b[16:], uint64(e.npages))
	binary.LittleEndian.PutUint64(b[24:], uint64(e.block))
	binary.LittleEndian.PutUint64(b[32:], uint64(e.newSize))
	binary.LittleEndian.PutUint32(b[60:], crc32.ChecksumIEEE(b[:60]))
	return b
}

func decodeEntry(b []byte) (logEntry, bool) {
	if crc32.ChecksumIEEE(b[:60]) != binary.LittleEndian.Uint32(b[60:]) {
		return logEntry{}, false
	}
	return logEntry{
		kind:    binary.LittleEndian.Uint32(b[0:]),
		pgoff:   int64(binary.LittleEndian.Uint64(b[8:])),
		npages:  int64(binary.LittleEndian.Uint64(b[16:])),
		block:   int64(binary.LittleEndian.Uint64(b[24:])),
		newSize: int64(binary.LittleEndian.Uint64(b[32:])),
	}, true
}

// appendEntry writes a log entry at the tail (allocating and linking a new
// log page when the current one is full), fences, and commits the tail.
func (ino *inode) appendEntry(ctx *sim.Ctx, e logEntry) error {
	fs := ino.fs
	if ino.logTail%pageSize == nextPtrOffset {
		// Current page full: link a fresh one.
		np, err := fs.alloc.Alloc(ctx)
		if err != nil {
			return err
		}
		curPage := ino.logTail - nextPtrOffset
		fs.dev.Store8(ctx, curPage+nextPtrOffset, uint64(np))
		ino.logTail = np
		ino.logPages++
	}
	buf := e.encode()
	fs.dev.WriteNT(ctx, buf[:], ino.logTail)
	fs.dev.Fence(ctx)
	ino.logTail += entrySize
	ino.commitTail(ctx)
	return nil
}

// apply folds a log entry into the DRAM radix (used by both the write path
// and recovery).
func (ino *inode) apply(ctx *sim.Ctx, e logEntry, freeOld bool) {
	switch e.kind {
	case entryTypeWrite:
		for i := int64(0); i < e.npages; i++ {
			pg := e.pgoff + i
			if old, ok := ino.pages[pg]; ok && freeOld {
				ino.fs.alloc.Free(ctx, old, 1)
			}
			ino.pages[pg] = e.block + i*pageSize
		}
		if e.newSize > ino.size {
			ino.size = e.newSize
		}
	case entryTypeSetLen:
		if e.newSize < ino.size {
			keep := (e.newSize + pageSize - 1) / pageSize
			for pg := range ino.pages {
				if pg >= keep {
					if freeOld {
						ino.fs.alloc.Free(ctx, ino.pages[pg], 1)
					}
					delete(ino.pages, pg)
				}
			}
		}
		ino.size = e.newSize
	}
}

// ---- vfs.FS ----

// Create implements vfs.FS.
func (fs *FS) Create(ctx *sim.Ctx, name string) (vfs.File, error) {
	ctx.Advance(fs.costs.Syscall + fs.costs.VFSOp)
	fs.mu.Lock(ctx)
	defer fs.mu.Unlock(ctx)
	if ino := fs.files[name]; ino != nil {
		ino.lock.Lock(ctx)
		err := ino.truncateLocked(ctx, 0)
		ino.lock.Unlock(ctx)
		if err != nil {
			return nil, err
		}
		ino.refs++
		return &handle{ino: ino}, nil
	}
	slot := -1
	for i, used := range fs.slots {
		if !used {
			slot = i
			break
		}
	}
	if slot < 0 {
		return nil, fmt.Errorf("nova: directory full")
	}
	head, err := fs.alloc.Alloc(ctx) // first log page
	if err != nil {
		return nil, err
	}
	ino := &inode{
		fs: fs, name: name, slot: slot,
		pages:   make(map[int64]int64),
		logHead: head, logTail: head, logPages: 1,
	}
	fs.slots[slot] = true
	fs.files[name] = ino
	fs.writeSlot(ctx, ino)
	ino.refs++
	return &handle{ino: ino}, nil
}

// Open implements vfs.FS.
func (fs *FS) Open(ctx *sim.Ctx, name string) (vfs.File, error) {
	ctx.Advance(fs.costs.Syscall + fs.costs.VFSOp)
	fs.mu.Lock(ctx)
	defer fs.mu.Unlock(ctx)
	ino := fs.files[name]
	if ino == nil {
		return nil, vfs.ErrNotExist
	}
	ino.refs++
	return &handle{ino: ino}, nil
}

// Remove implements vfs.FS.
func (fs *FS) Remove(ctx *sim.Ctx, name string) error {
	ctx.Advance(fs.costs.Syscall + fs.costs.VFSOp)
	fs.mu.Lock(ctx)
	defer fs.mu.Unlock(ctx)
	ino := fs.files[name]
	if ino == nil {
		return vfs.ErrNotExist
	}
	delete(fs.files, name)
	fs.slots[ino.slot] = false
	fs.clearSlot(ctx, ino.slot)
	ino.removed = true
	if ino.refs == 0 {
		ino.releaseAll(ctx)
	}
	return nil
}

func (ino *inode) releaseAll(ctx *sim.Ctx) {
	for _, blk := range ino.pages {
		ino.fs.alloc.Free(ctx, blk, 1)
	}
	ino.pages = map[int64]int64{}
	// Free the log chain.
	for pg := ino.logHead; pg != 0; {
		next := int64(ino.fs.dev.Load8(pg + nextPtrOffset))
		ino.fs.alloc.Free(ctx, pg, 1)
		pg = next
	}
	ino.logHead, ino.logTail = 0, 0
}

func (ino *inode) truncateLocked(ctx *sim.Ctx, size int64) error {
	shrink := size < ino.size
	if err := ino.appendAndApply(ctx, logEntry{kind: entryTypeSetLen, newSize: size}); err != nil {
		return err
	}
	// Maintain the invariant that allocated bytes beyond EOF are zero, so a
	// later extension exposes no stale data.
	if in := size % pageSize; shrink && in != 0 {
		if blk, ok := ino.pages[size/pageSize]; ok {
			zero := make([]byte, pageSize-in)
			ino.fs.dev.WriteNT(ctx, zero, blk+in)
			// Drain the zeroing before returning: the SetLen entry above is
			// already committed, and a caller's next commit must not be able
			// to persist ahead of these zeros.
			ino.fs.dev.Fence(ctx)
		}
	}
	return nil
}

func (ino *inode) appendAndApply(ctx *sim.Ctx, e logEntry) error {
	if err := ino.appendEntry(ctx, e); err != nil {
		return err
	}
	ino.apply(ctx, e, true)
	return ino.maybeGC(ctx)
}

// handle is an open descriptor.
type handle struct {
	ino    *inode
	closed bool
}

var _ vfs.File = (*handle)(nil)

// Size implements vfs.File.
func (h *handle) Size() int64 { return h.ino.size }

// Close implements vfs.File.
func (h *handle) Close(ctx *sim.Ctx) error {
	if h.closed {
		return vfs.ErrClosed
	}
	h.closed = true
	fs := h.ino.fs
	ctx.Advance(fs.costs.Syscall)
	fs.mu.Lock(ctx)
	defer fs.mu.Unlock(ctx)
	h.ino.refs--
	if h.ino.refs == 0 && h.ino.removed {
		h.ino.releaseAll(ctx)
	}
	return nil
}

// Truncate implements vfs.File.
func (h *handle) Truncate(ctx *sim.Ctx, size int64) error {
	if h.closed {
		return vfs.ErrClosed
	}
	ino := h.ino
	ctx.Advance(ino.fs.costs.Syscall + ino.fs.costs.VFSOp)
	ino.lock.Lock(ctx)
	defer ino.lock.Unlock(ctx)
	return ino.truncateLocked(ctx, size)
}

// WriteAt implements vfs.File. Each call is one failure-atomic NOVA write.
func (h *handle) WriteAt(ctx *sim.Ctx, p []byte, off int64) (int, error) {
	if h.closed {
		return 0, vfs.ErrClosed
	}
	if err := vfs.CheckWrite(off, len(p)); err != nil {
		return 0, fmt.Errorf("nova: %w", err)
	}
	if len(p) == 0 {
		return 0, nil
	}
	ino := h.ino
	fs := ino.fs
	ctx.Advance(fs.costs.Syscall + fs.costs.VFSOp/2)
	ino.lock.Lock(ctx)
	defer ino.lock.Unlock(ctx)

	end := off + int64(len(p))
	p0 := off / pageSize
	p1 := (end - 1) / pageSize
	n := p1 - p0 + 1

	blocks, err := fs.alloc.AllocContig(ctx, n)
	if err != nil {
		return 0, err
	}

	// Build each new page: CoW merge for partially-covered head/tail pages.
	var pagebuf [pageSize]byte
	for i := int64(0); i < n; i++ {
		pg := p0 + i
		pgStart := pg * pageSize
		lo, hi := off, end
		if lo < pgStart {
			lo = pgStart
		}
		if hi > pgStart+pageSize {
			hi = pgStart + pageSize
		}
		fullCover := lo == pgStart && hi == pgStart+pageSize
		dst := blocks + i*pageSize
		out := p[lo-off : hi-off]
		if !fullCover {
			// Read-modify-copy: old page (or zeros), patched with new bytes,
			// written out whole — NOVA's sub-page write amplification.
			if old, ok := ino.pages[pg]; ok {
				fs.dev.Read(ctx, pagebuf[:], old)
			} else {
				pagebuf = [pageSize]byte{}
			}
			copy(pagebuf[lo-pgStart:], out)
			out = pagebuf[:]
		}
		fs.dev.WriteNT(ctx, out, dst)
	}
	// CoW pages durable before the log entry referencing them commits: a
	// crash after the tail publish must replay onto fully-written pages.
	fs.dev.Fence(ctx)

	newSize := ino.size
	if end > newSize {
		newSize = end
	}
	if err := ino.appendAndApply(ctx, logEntry{
		kind: entryTypeWrite, pgoff: p0, npages: n, block: blocks, newSize: newSize,
	}); err != nil {
		return 0, err
	}
	return len(p), nil
}

// ReadAt implements vfs.File.
func (h *handle) ReadAt(ctx *sim.Ctx, p []byte, off int64) (int, error) {
	if h.closed {
		return 0, vfs.ErrClosed
	}
	if off < 0 {
		return 0, fmt.Errorf("nova: negative offset %d", off)
	}
	ino := h.ino
	fs := ino.fs
	ctx.Advance(fs.costs.Syscall + fs.costs.VFSOp/2)
	ino.lock.RLock(ctx)
	defer ino.lock.RUnlock(ctx)

	if off >= ino.size {
		return 0, nil
	}
	n := len(p)
	if int64(n) > ino.size-off {
		n = int(ino.size - off)
	}
	read := 0
	for read < n {
		pos := off + int64(read)
		pg := pos / pageSize
		in := pos % pageSize
		chunk := pageSize - int(in)
		if chunk > n-read {
			chunk = n - read
		}
		ctx.Advance(fs.costs.IndexStep * 3) // radix walk
		if blk, ok := ino.pages[pg]; ok {
			fs.dev.Read(ctx, p[read:read+chunk], blk+in)
		} else {
			for i := read; i < read+chunk; i++ {
				p[i] = 0
			}
		}
		read += chunk
	}
	return n, nil
}

// Fsync implements vfs.File: NOVA operations are synchronous, so fsync is a
// kernel round trip and a fence.
func (h *handle) Fsync(ctx *sim.Ctx) error {
	if h.closed {
		return vfs.ErrClosed
	}
	ctx.Advance(h.ino.fs.costs.Syscall + h.ino.fs.costs.FsyncPath)
	h.ino.fs.dev.Fence(ctx)
	return nil
}
