package core

import (
	"mgsp/internal/sim"
	"mgsp/internal/vfs"
)

// snapHandle is a read-only vfs.File over one snapshot's frozen image. Reads
// resolve through the same radix tree as live reads, but every node's
// (word, logOff) is replaced by the snapshot's view: the serving pin if the
// node was mutated after the snapshot, the live state otherwise, and
// "nonexistent" for nodes recorded after the snapshot froze.
type snapHandle struct {
	f      *file
	s      *snapshot
	closed bool
}

func (h *snapHandle) Size() int64 { return h.s.size }

func (h *snapHandle) WriteAt(ctx *sim.Ctx, p []byte, off int64) (int, error) {
	return 0, vfs.ErrReadOnly
}

func (h *snapHandle) Truncate(ctx *sim.Ctx, size int64) error { return vfs.ErrReadOnly }

// Fsync is a no-op: a snapshot is durable from the moment its create mark
// committed.
func (h *snapHandle) Fsync(ctx *sim.Ctx) error {
	if h.closed {
		return vfs.ErrClosed
	}
	return nil
}

func (h *snapHandle) Close(ctx *sim.Ctx) error {
	if h.closed {
		return vfs.ErrClosed
	}
	h.closed = true
	h.s.handles.Add(-1)
	ctx.Advance(h.f.fs.costs.Syscall)
	return nil
}

func (h *snapHandle) ReadAt(ctx *sim.Ctx, p []byte, off int64) (int, error) {
	if h.closed {
		return 0, vfs.ErrClosed
	}
	return h.f.read(ctx, p, off, h.s)
}

// snapNodeView returns the (word, logOff) snapshot sid sees at node n.
// Nodes recorded at or after the snapshot froze are invisible: leaves expose
// no valid units; interiors still descend (existing-only) because tree
// growth re-parents older nodes under newer roots.
func (f *file) snapNodeView(n *node, sid uint64) (uint64, int64) {
	if n.birth.Load() >= sid {
		if n.leaf {
			return 0, 0
		}
		return bitExisting, 0
	}
	if p := f.pinFor(n, sid); p != nil {
		return p.word, p.logOff
	}
	return n.word.Load(), n.logOff
}
