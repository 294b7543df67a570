// Package ext4 simulates the Ext4 file system in the four configurations the
// paper evaluates: the data=writeback, data=ordered, and data=journal page-
// cache modes (Figure 1) and Ext4-DAX, the direct-access mode used as the
// baseline and as MGSP's underlying file system throughout the evaluation.
//
// The model captures the costs that drive the paper's comparisons:
//
//   - every operation pays the kernel round trip (syscall + VFS/iomap path);
//   - writes hold the inode's i_rwsem exclusively, the file-level lock that
//     prevents intra-file write scaling (Figure 10);
//   - non-DAX modes buffer in the page cache and pay journal commits plus
//     write-back on fsync (double write in data=journal mode);
//   - DAX writes go straight to media with non-temporal stores; fsync only
//     commits metadata, so Ext4-DAX provides metadata-only crash consistency.
package ext4

import (
	"fmt"

	"mgsp/internal/alloc"
	"mgsp/internal/nvm"
	"mgsp/internal/sim"
	"mgsp/internal/vfs"
)

// Mode selects the Ext4 configuration.
type Mode int

const (
	// DAX is Ext4-DAX: direct access, metadata-only consistency.
	DAX Mode = iota
	// Writeback is data=writeback: metadata journaled, data written back
	// with no ordering against commits.
	Writeback
	// Ordered is data=ordered (the Ext4 default): data written back before
	// the metadata commit.
	Ordered
	// Journal is data=journal: data goes through the journal too (double
	// write).
	Journal
)

// String returns the configuration's display name.
func (m Mode) String() string {
	switch m {
	case DAX:
		return "Ext4-DAX"
	case Writeback:
		return "Ext4-wb"
	case Ordered:
		return "Ext4-ordered"
	case Journal:
		return "Ext4-journal"
	}
	return fmt.Sprintf("Ext4(%d)", int(m))
}

const (
	pageSize = 4096
	// journalSize is the on-device journal region (Ext4 defaults to 128 MiB
	// for large file systems; we scale down with our smaller devices).
	journalSize = 16 << 20
	// dirtyLimit approximates the kernel's dirty-page threshold: beyond it,
	// writers are throttled into performing write-back themselves.
	dirtyLimit = 8192 // pages (32 MiB)
	// extentChunk is the allocation granularity in blocks (delayed-allocation
	// style batching keeps files mostly contiguous).
	extentChunk = 256
)

// FS is a mounted Ext4 instance.
type FS struct {
	dev     *nvm.Device
	mode    Mode
	costs   *sim.Costs
	alloc   *alloc.Allocator
	journal *journal

	mu    sim.Mutex // namespace lock
	files map[string]*inode
}

// New formats and mounts an Ext4 file system over the whole device.
func New(dev *nvm.Device, mode Mode) *FS {
	costs := dev.Costs()
	js := int64(journalSize)
	if js > dev.Size()/4 {
		js = dev.Size() / 4 / pageSize * pageSize
	}
	return &FS{
		dev:     dev,
		mode:    mode,
		costs:   costs,
		alloc:   alloc.New(js, dev.Size()-js, pageSize, costs),
		journal: newJournal(dev, 0, js),
		files:   make(map[string]*inode),
	}
}

// Name implements vfs.FS.
func (fs *FS) Name() string { return fs.mode.String() }

// Device implements vfs.FS.
func (fs *FS) Device() *nvm.Device { return fs.dev }

// Consistency implements vfs.Guarantees: Ext4 in any mode guarantees only
// metadata consistency for this workload model (data=journal protects data
// pages but not application-level write atomicity across fsync boundaries).
func (fs *FS) Consistency() vfs.ConsistencyLevel { return vfs.MetadataOnly }

// extent maps a run of logical pages to physical blocks.
type extent struct {
	logical  int64 // first logical page index
	physical int64 // device offset of first block
	pages    int64
}

type inode struct {
	fs   *FS
	name string

	lock sim.RWMutex // i_rwsem

	size      int64
	extents   []extent
	allocated int64 // logical pages with backing blocks (all pages < allocated)

	// Page cache (non-DAX modes).
	cache []byte
	dirty map[int64]struct{}

	metaDirty bool
	removed   bool
	refs      int
}

// Create implements vfs.FS.
func (fs *FS) Create(ctx *sim.Ctx, name string) (vfs.File, error) {
	ctx.Advance(fs.costs.Syscall + fs.costs.VFSOp)
	fs.mu.Lock(ctx)
	defer fs.mu.Unlock(ctx)
	ino := fs.files[name]
	if ino == nil {
		ino = &inode{fs: fs, name: name, dirty: make(map[int64]struct{})}
		fs.files[name] = ino
		fs.journal.commit(ctx, nil, 1) // new inode + dir entry
	} else {
		ino.lock.Lock(ctx)
		ino.truncateLocked(ctx, 0)
		ino.lock.Unlock(ctx)
	}
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
	ino.removed = true
	if ino.refs == 0 {
		ino.releaseBlocks(ctx)
	}
	fs.journal.commit(ctx, nil, 1)
	return nil
}

func (ino *inode) releaseBlocks(ctx *sim.Ctx) {
	for _, e := range ino.extents {
		ino.fs.alloc.Free(ctx, e.physical, e.pages)
	}
	ino.extents = nil
	ino.allocated = 0
}

// ensureAllocated makes sure logical pages [0, pages) have backing blocks,
// journaling the extent-tree update.
func (ino *inode) ensureAllocated(ctx *sim.Ctx, pages int64) error {
	for ino.allocated < pages {
		want := pages - ino.allocated
		chunk := int64(extentChunk)
		if want > chunk {
			chunk = want
		}
		phys, err := ino.fs.alloc.AllocContig(ctx, chunk)
		if err != nil {
			// Fall back to the exact need, then to single blocks.
			if chunk > want {
				if phys, err = ino.fs.alloc.AllocContig(ctx, want); err != nil {
					if phys, err = ino.fs.alloc.Alloc(ctx); err != nil {
						return err
					}
					chunk = 1
				} else {
					chunk = want
				}
			} else {
				return err
			}
		} else if chunk > want {
			// Keep the full chunk as preallocation.
		}
		// Merge with the previous extent when physically contiguous.
		if n := len(ino.extents); n > 0 {
			last := &ino.extents[n-1]
			if last.physical+last.pages*pageSize == phys && last.logical+last.pages == ino.allocated {
				last.pages += chunk
				ino.allocated += chunk
				ino.metaDirty = true
				continue
			}
		}
		ino.extents = append(ino.extents, extent{logical: ino.allocated, physical: phys, pages: chunk})
		ino.allocated += chunk
		ino.metaDirty = true
	}
	return nil
}

// lookup maps a logical page to its physical block offset, charging the
// extent-tree search.
func (ino *inode) lookup(ctx *sim.Ctx, page int64) int64 {
	ctx.Advance(ino.fs.costs.IndexStep * 2)
	lo, hi := 0, len(ino.extents)
	for lo < hi {
		mid := (lo + hi) / 2
		e := ino.extents[mid]
		if page < e.logical {
			hi = mid
		} else if page >= e.logical+e.pages {
			lo = mid + 1
		} else {
			return e.physical + (page-e.logical)*pageSize
		}
	}
	panic(fmt.Sprintf("ext4: page %d of %q has no extent", page, ino.name))
}

// extentRun returns how many allocated pages from page onward are
// physically contiguous (bounded by the containing extent).
func (ino *inode) extentRun(page int64) int64 {
	for _, e := range ino.extents {
		if page >= e.logical && page < e.logical+e.pages {
			return e.logical + e.pages - page
		}
	}
	return 1
}

func (ino *inode) truncateLocked(ctx *sim.Ctx, size int64) {
	if size < ino.size {
		if int64(len(ino.cache)) > size {
			ino.cache = ino.cache[:size]
		}
	}
	if size > int64(len(ino.cache)) && ino.fs.mode != DAX {
		ino.cache = append(ino.cache, make([]byte, size-int64(len(ino.cache)))...)
	}
	if ino.fs.mode == DAX && size > ino.size {
		// Zero exactly [old EOF, new EOF) on media; whole-page zeroing would
		// clobber live bytes sharing the old EOF page.
		pages := (size + pageSize - 1) / pageSize
		if err := ino.ensureAllocated(ctx, pages); err == nil {
			ino.zeroRange(ctx, ino.size, size)
			// Zeros durable before whatever commit the caller issues next
			// records the new size.
			ino.fs.dev.Fence(ctx)
		}
	}
	ino.size = size
	ino.metaDirty = true
}

// handle is an open file descriptor.
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
		h.ino.releaseBlocks(ctx)
	}
	return nil
}

// Truncate implements vfs.File.
func (h *handle) Truncate(ctx *sim.Ctx, size int64) error {
	if h.closed {
		return vfs.ErrClosed
	}
	fs := h.ino.fs
	ctx.Advance(fs.costs.Syscall + fs.costs.VFSOp)
	h.ino.lock.Lock(ctx)
	defer h.ino.lock.Unlock(ctx)
	h.ino.truncateLocked(ctx, size)
	return nil
}

// WriteAt implements vfs.File.
func (h *handle) WriteAt(ctx *sim.Ctx, p []byte, off int64) (int, error) {
	if h.closed {
		return 0, vfs.ErrClosed
	}
	if err := vfs.CheckWrite(off, len(p)); err != nil {
		return 0, fmt.Errorf("ext4: %w", err)
	}
	if len(p) == 0 {
		return 0, nil
	}
	ino := h.ino
	fs := ino.fs
	ctx.Advance(fs.costs.Syscall + fs.costs.VFSOp)
	ino.lock.Lock(ctx)
	defer ino.lock.Unlock(ctx)

	end := off + int64(len(p))
	if fs.mode == DAX {
		pages := (end + pageSize - 1) / pageSize
		if err := ino.ensureAllocated(ctx, pages); err != nil {
			return 0, err
		}
		// Zero any hole between old EOF and the write start.
		if holeStart := ino.size; off > holeStart {
			ino.zeroRange(ctx, holeStart, off)
		}
		h.writeMedia(ctx, p, off)
		fs.dev.Fence(ctx)
	} else {
		if end > int64(len(ino.cache)) {
			ino.cache = append(ino.cache, make([]byte, end-int64(len(ino.cache)))...)
		}
		copy(ino.cache[off:], p)
		ctx.Advance(fs.costs.DRAMCopyCost(len(p)))
		for pg := off / pageSize; pg <= (end-1)/pageSize; pg++ {
			ino.dirty[pg] = struct{}{}
		}
		if len(ino.dirty) > dirtyLimit {
			h.writebackLocked(ctx, false)
		}
	}
	if end > ino.size {
		ino.size = end
		ino.metaDirty = true
	}
	return len(p), nil
}

// writeMedia writes p at logical offset off through the extent map with
// non-temporal stores, splitting at extent boundaries.
func (h *handle) writeMedia(ctx *sim.Ctx, p []byte, off int64) {
	ino := h.ino
	for len(p) > 0 {
		page := off / pageSize
		inPage := off % pageSize
		phys := ino.lookup(ctx, page)
		n := pageSize - int(inPage)
		if n > len(p) {
			n = len(p)
		}
		ino.fs.dev.WriteNT(ctx, p[:n], phys+inPage)
		p = p[n:]
		off += int64(n)
	}
}

func (ino *inode) zeroRange(ctx *sim.Ctx, from, to int64) {
	if to <= from {
		return
	}
	zero := make([]byte, pageSize)
	for from < to {
		n := int64(pageSize - from%pageSize)
		if n > to-from {
			n = to - from
		}
		phys := ino.lookup(ctx, from/pageSize)
		ino.fs.dev.WriteNT(ctx, zero[:n], phys+from%pageSize)
		from += n
	}
}

// ReadAt implements vfs.File.
func (h *handle) ReadAt(ctx *sim.Ctx, p []byte, off int64) (int, error) {
	if h.closed {
		return 0, vfs.ErrClosed
	}
	if off < 0 {
		return 0, fmt.Errorf("ext4: negative offset %d", off)
	}
	ino := h.ino
	fs := ino.fs
	ctx.Advance(fs.costs.Syscall + fs.costs.VFSOp)
	ino.lock.RLock(ctx)
	defer ino.lock.RUnlock(ctx)

	if off >= ino.size {
		return 0, nil
	}
	n := len(p)
	if int64(n) > ino.size-off {
		n = int(ino.size - off)
	}
	if fs.mode == DAX {
		read := 0
		for read < n {
			pos := off + int64(read)
			page := pos / pageSize
			inPage := pos % pageSize
			if page >= ino.allocated {
				chunk := pageSize - int(inPage)
				if chunk > n-read {
					chunk = n - read
				}
				for i := read; i < read+chunk; i++ {
					p[i] = 0
				}
				read += chunk
				continue
			}
			// Read the whole run of pages within this extent in one
			// transfer (DAX reads stream through the mapping).
			phys := ino.lookup(ctx, page)
			run := ino.extentRun(page) * pageSize
			chunk := int(run - inPage)
			if chunk > n-read {
				chunk = n - read
			}
			fs.dev.Read(ctx, p[read:read+chunk], phys+inPage)
			read += chunk
		}
	} else {
		copy(p[:n], ino.cache[off:])
		ctx.Advance(fs.costs.DRAMCopyCost(n))
	}
	return n, nil
}

// Fsync implements vfs.File.
func (h *handle) Fsync(ctx *sim.Ctx) error {
	if h.closed {
		return vfs.ErrClosed
	}
	ino := h.ino
	fs := ino.fs
	ctx.Advance(fs.costs.Syscall + fs.costs.FsyncPath)
	ino.lock.Lock(ctx)
	defer ino.lock.Unlock(ctx)

	if fs.mode == DAX {
		fs.dev.Fence(ctx)
		if ino.metaDirty {
			fs.journal.commit(ctx, nil, 1)
			ino.metaDirty = false
		}
		return nil
	}
	h.writebackLocked(ctx, true)
	return nil
}

// writebackLocked flushes dirty pages per the journaling mode. When sync is
// false this is throttling write-back: data goes to disk but the commit is
// left to the periodic journal thread (modeled as metadata-only cost later).
func (h *handle) writebackLocked(ctx *sim.Ctx, sync bool) {
	ino := h.ino
	fs := ino.fs
	if len(ino.dirty) == 0 {
		if sync && ino.metaDirty {
			fs.journal.commit(ctx, nil, 1)
			ino.metaDirty = false
		}
		return
	}
	pages := make([]int64, 0, len(ino.dirty))
	maxPage := (ino.size + pageSize - 1) / pageSize
	for pg := range ino.dirty {
		pages = append(pages, pg)
		// Dirty pages can lie beyond the published size when throttling
		// write-back runs inside an in-flight extending write.
		if pg+1 > maxPage {
			maxPage = pg + 1
		}
	}
	if err := ino.ensureAllocated(ctx, maxPage); err != nil {
		return
	}
	var journalPayload [][]byte
	for _, pg := range pages {
		start := pg * pageSize
		endb := start + pageSize
		if endb > int64(len(ino.cache)) {
			endb = int64(len(ino.cache))
		}
		if start >= endb {
			delete(ino.dirty, pg)
			continue
		}
		buf := ino.cache[start:endb]
		if fs.mode == Journal {
			journalPayload = append(journalPayload, buf) // data through the journal
		}
		fs.dev.WriteNT(ctx, buf, ino.lookup(ctx, pg)) // write-back to home location
		delete(ino.dirty, pg)
	}
	fs.dev.Fence(ctx)
	if sync || fs.mode == Journal {
		fs.journal.commit(ctx, journalPayload, 1)
		ino.metaDirty = false
	}
}
