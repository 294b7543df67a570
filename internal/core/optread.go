package core

// Optimistic lock-free reads. Under MGL every read pays lock acquisitions
// proportional to its cover — pure overhead when nothing is writing the
// file, which is the common case for read-mostly shards at high worker
// counts. The optimistic path serves a read with zero MGL traffic:
//
//  1. the reader registers in the file's Dekker-style gate (optRd) and
//     bails if any writer section is open (optWS != optWF);
//  2. it walks the tree lock-free, recording each visited node's version
//     (mglLock.ver, odd while a W holder is active) and bailing on odd;
//  3. it copies the data exactly like the locked resolve path;
//  4. it validates that every recorded version is unchanged and that no
//     writer entered the file (optWS unmoved), else falls back.
//
// Writers are drained the other way around: every mutating section calls
// writerEnter, which publishes the section (optWS) and then spins until no
// reader is registered. Registered readers never block — the walk takes no
// locks — so the spin is bounded by one in-flight copy. Readers that
// register after the publish observe optWS != optWF and bail immediately,
// so writers cannot starve. The per-node versions are a second, independent
// guard: even a mutation path that missed a gate call is caught as long as
// it holds W locks, which all foreground mutators do.
//
// The gate counters are volatile DRAM state (like the greedy-locking
// bookkeeping) and unmetered in virtual time; the walk itself charges the
// same IndexStep and media costs as the locked path.

import (
	"runtime"

	"mgsp/internal/obs"
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

// readOptimistic attempts the lock-free read of [off, off+len(p)). It
// reports false when the attempt was abandoned — the caller must then run
// the ordinary locked path, which fully overwrites p.
func (f *file) readOptimistic(ctx *sim.Ctx, p []byte, off int64, began int64) bool {
	root := f.root.Load()
	if root == nil {
		return false
	}
	fs := f.fs
	f.optRd.Add(1)
	defer f.optRd.Add(-1)
	ws := f.optWS.Load()
	if ws != f.optWF.Load() {
		fs.stats.OptReadFallbacks.Add(ctx.ID, 1)
		return false
	}
	end := off + int64(len(p))
	vers := make([]nodeVer, 0, 8)
	if !f.readView(ctx, root, view{vers: &vers}, off, p, f.size.Load()) {
		fs.stats.OptReadFallbacks.Add(ctx.ID, 1)
		return false
	}
	// Validate after the copy: every visited node's version unchanged (and
	// even), and no writer section opened since registration.
	for _, nv := range vers {
		if nv.n.lock.ver.Load() != nv.v {
			fs.stats.OptReadFallbacks.Add(ctx.ID, 1)
			return false
		}
	}
	if f.optWS.Load() != ws {
		fs.stats.OptReadFallbacks.Add(ctx.ID, 1)
		return false
	}
	fs.stats.OptReads.Add(ctx.ID, 1)
	f.updateMinSearch(off, end)
	dur := ctx.Now() - began
	fs.hRead.Observe(dur)
	fs.trace.Record(ctx.ID, obs.OpRead, f.pf.Slot(), off, int64(len(p)), dur)
	return true
}
