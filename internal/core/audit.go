package core

import (
	"bytes"
	"fmt"
	"sort"

	"mgsp/internal/sim"
)

// AuditReport is the result of AuditBlocks: a full accounting of the data
// region. Orphans are allocated blocks no file extent, live shadow log, or
// snapshot pin reaches (leaked space); Unallocated are reachable blocks the
// allocator does not consider in use (double-accounting — should never
// happen and indicates metadata corruption).
type AuditReport struct {
	Allocated   int64 // blocks the allocator holds
	Reachable   int64 // distinct blocks reachable from metadata
	Orphans     []int64
	Unallocated []int64
}

// Clean reports whether every allocated block is accounted for.
func (r *AuditReport) Clean() bool {
	return len(r.Orphans) == 0 && len(r.Unallocated) == 0
}

// AuditBlocks cross-checks the allocator against everything that can
// legitimately own a data-region block: file extents, live tree node logs,
// and snapshot pin logs. Intended for quiescent file systems (fsck right
// after Mount); it takes no locks.
func (fs *FS) AuditBlocks() AuditReport {
	// Worker shard caches hold blocks that are allocated but referenced by
	// nothing; on the quiescent file systems this audit is specified for,
	// returning them first keeps them from reading as leaks.
	fs.prov.Alloc().Drain(sim.NewCtx(0, 0))
	bs := fs.prov.Alloc().BlockSize()
	reach := make(map[int64]bool)
	addRun := func(off, blocks int64) {
		for i := int64(0); i < blocks; i++ {
			reach[off+i*bs] = true
		}
	}
	for _, f := range fs.files {
		for _, e := range f.pf.PhysExtents() {
			addRun(e.Off, e.N)
		}
		if r := f.root.Load(); r != nil {
			auditWalk(r, addRun)
		}
		for n, ps := range f.pins {
			for _, p := range ps {
				if p.logOff != 0 && pinRefsLog(n.leaf, p.word) {
					addRun(p.logOff, n.span/LeafSpan)
				}
			}
		}
	}
	var rep AuditReport
	rep.Reachable = int64(len(reach))
	fs.prov.Alloc().Range(func(off int64, refs int) bool {
		rep.Allocated++
		if !reach[off] {
			rep.Orphans = append(rep.Orphans, off)
		}
		return true
	})
	for off := range reach {
		if !fs.prov.Alloc().Allocated(off) {
			rep.Unallocated = append(rep.Unallocated, off)
		}
	}
	sort.Slice(rep.Unallocated, func(i, j int) bool { return rep.Unallocated[i] < rep.Unallocated[j] })
	return rep
}

// auditWalk adds every live shadow log in the subtree. A log is reachable
// the moment its record points at it (even with all valid bits clear — the
// block is legitimately retained for reuse).
func auditWalk(n *node, addRun func(off, blocks int64)) {
	if n.logOff != 0 {
		addRun(n.logOff, n.span/LeafSpan)
	}
	for i := range n.children {
		if c := n.children[i].Load(); c != nil {
			auditWalk(c, addRun)
		}
	}
}

// AuditFrames cross-checks the frame tier against the tree: every resident
// frame keyed by a file's current incarnation must hold what a read of its
// block resolves. It returns the first mismatch. Quiescent file systems
// only; it takes no node locks.
func (fs *FS) AuditFrames() (err error) {
	if fs.pcache == nil {
		return nil
	}
	live := make(map[int]*file, len(fs.files))
	for _, f := range fs.files {
		live[int(f.key.Load())] = f
	}
	want := make([]byte, LeafSpan)
	fs.pcache.Range(func(key int, block int64, data []byte) {
		if f := live[key]; f != nil && err == nil {
			f.resolveData(sim.NewCtx(0, 0), block*LeafSpan, (block+1)*LeafSpan, want)
			if !bytes.Equal(data, want) {
				err = fmt.Errorf("core: frame of %s block %d differs from the tree", f.name, block)
			}
		}
	})
	return err
}
