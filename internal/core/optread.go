package core

// Optimistic lock-free reads (DESIGN.md §13.2). Under MGL a read that
// misses the frame tier first runs with zero MGL traffic: it registers in the
// file's Dekker-style gate (optRd) and bails if a writer section is open
// (optWS != optWF); walks the live tree or a snapshot's view recording each
// node's version (mglLock.ver, odd while a W holder is active) and bailing
// on odd; then validates every version and that no writer entered (optWS
// unmoved), else falls back to the locked walk. A cache miss installs its
// block before deregistering. Snapshot reads qualify because DropSnapshot
// refuses while a snapshot has open handles, so its pins outlive readers.
//
// Every mutating section calls writerEnter, which publishes the section and
// spins until no reader is registered. Readers never block, so the spin is
// bounded by one in-flight copy, and readers that register after the publish
// bail at once, so writers cannot starve. The versions are a second guard:
// a mutation path that missed the gate is still caught if it holds W locks.
// The gate counters are volatile and unmetered in virtual time; the walk
// charges the same IndexStep and media costs as the locked path.

import (
	"runtime"

	"mgsp/internal/sim"
)

// writerEnter opens a mutating section on the file: publish, then drain
// registered optimistic readers. No-op unless the optimistic path is armed
// (fs.optGate), keeping every other configuration bit-identical.
func (f *file) writerEnter() {
	if !f.fs.optGate {
		return
	}
	f.optWS.Add(1)
	for f.optRd.Load() != 0 {
		runtime.Gosched()
	}
}

// writerExit closes the mutating section opened by writerEnter.
func (f *file) writerExit() {
	if !f.fs.optGate {
		return
	}
	f.optWF.Add(1)
}

// nodeVer is one recorded (node, version) observation of the lock-free walk.
type nodeVer struct {
	n *node
	v uint64
}

// readOptimistic attempts the lock-free read of p at off, of snapshot s or
// (s == nil) of the live file. It reports false when the attempt was
// abandoned; the caller then runs the locked path, which fully overwrites p.
// A fill installs its frame after the final validation but before the
// deferred deregistration: a writer that opened its section after this
// reader registered is still draining in writerEnter, so it patches the
// frame only after the install.
func (f *file) readOptimistic(ctx *sim.Ctx, p []byte, off int64, s *snapshot, fill bool) bool {
	fs := f.fs
	f.optRd.Add(1)
	defer f.optRd.Add(-1)
	ws := f.optWS.Load()
	ok := ws == f.optWF.Load()
	var frame []byte
	vers := make([]nodeVer, 0, 8)
	key, root := int(f.key.Load()), f.root.Load()
	if ok {
		v, eof := f.viewOf(s, &vers)
		frame, ok = f.resolveRead(ctx, root, v, eof, p, off, fill)
	}
	// Validate after the copy: every visited node's version unchanged (and
	// even), and no writer section opened since registration.
	for _, nv := range vers {
		ok = ok && nv.n.lock.ver.Load() == nv.v
	}
	if !ok || f.optWS.Load() != ws {
		if s == nil {
			fs.stats.OptReadFallbacks.Add(ctx.ID, 1)
		}
		return false
	}
	if frame != nil {
		fs.pcache.Install(key, off/LeafSpan, frame, false)
	}
	if s == nil {
		fs.stats.OptReads.Add(ctx.ID, 1)
		if root != nil {
			f.updateMinSearch(off, off+int64(len(p)))
		}
	}
	return true
}
