// Package a holds the crashsafe-locks golden cases: locks held across
// media ops (which may panic under a crash sweep) with and without a deferred
// unlock.
package a

import (
	"nvm"
	"pm"
	"sim"
)

type shared struct {
	mu     sim.Mutex
	rw     sim.RWMutex
	sizeMu sim.Mutex
	dev    *nvm.Device
	pf     *pm.File
	n      int64
}

// badDirectMedia: the lock leaks if Store8 panics at a fail point.
func badDirectMedia(ctx *sim.Ctx, s *shared) {
	s.mu.Lock(ctx) // want `s\.mu\.Lock held across potential crash point Store8 without a deferred unlock`
	s.dev.Store8(ctx, 0, 1)
	s.mu.Unlock(ctx)
}

// badCrossPackage: SetSize takes ctx in another package — conservatively a
// crash point (it persists the size word). This is the WriteAt size-publish
// shape fixed in this PR.
func badCrossPackage(ctx *sim.Ctx, s *shared, end int64) {
	if end > s.n {
		s.sizeMu.Lock(ctx) // want `s\.sizeMu\.Lock held across potential crash point SetSize without a deferred unlock`
		if end > s.n {
			s.n = end
			s.pf.SetSize(ctx, end)
		}
		s.sizeMu.Unlock(ctx)
	}
}

// badReadLock: read locks leak the same way.
func badReadLock(ctx *sim.Ctx, s *shared, buf []byte) {
	s.rw.RLock(ctx) // want `s\.rw\.RLock held across potential crash point Read without a deferred unlock`
	s.dev.Read(ctx, buf, 0)
	s.rw.RUnlock(ctx)
}

// goodDeferred: the canonical shape — defer runs even when the media op
// panics, so the lock cannot leak.
func goodDeferred(ctx *sim.Ctx, s *shared) {
	s.mu.Lock(ctx)
	defer s.mu.Unlock(ctx)
	s.dev.Store8(ctx, 0, 1)
}

// goodLockedClosure: the fixed WriteAt/DropSnapshot shape — a closure keeps
// the deferred unlock tight around the media-op section.
func goodLockedClosure(ctx *sim.Ctx, s *shared, end int64) {
	if end > s.n {
		func() {
			s.sizeMu.Lock(ctx)
			defer s.sizeMu.Unlock(ctx)
			if end > s.n {
				s.n = end
				s.pf.SetSize(ctx, end)
			}
		}()
	}
}

// goodDeferredClosureUnlock: an unlock inside an immediately deferred
// closure also runs on panic.
func goodDeferredClosureUnlock(ctx *sim.Ctx, s *shared) {
	s.mu.Lock(ctx)
	defer func() {
		s.mu.Unlock(ctx)
	}()
	s.dev.Store8(ctx, 0, 1)
}

// goodNoMediaOp: branch unlocks with only volatile work between are fine.
func goodNoMediaOp(ctx *sim.Ctx, s *shared, hit bool) {
	s.mu.Lock(ctx)
	if hit {
		s.n++
		s.mu.Unlock(ctx)
		return
	}
	s.mu.Unlock(ctx)
	s.dev.Store8(ctx, 0, 1) // after release: fine
}

// goodCtxFreeCallee: Slot takes no ctx — volatile, not a crash point.
func goodCtxFreeCallee(ctx *sim.Ctx, s *shared) {
	s.mu.Lock(ctx)
	s.n = int64(s.pf.Slot())
	s.mu.Unlock(ctx)
}

// goodHandoff: acquire-and-escape (the lockOp/release shape) — no unlock in
// this function means the caller owns the release; not tracked.
func goodHandoff(ctx *sim.Ctx, s *shared) *shared {
	s.mu.Lock(ctx)
	s.dev.Store8(ctx, 0, 1)
	return s
}

// goodAnnotated: explicit suppression with justification.
func goodAnnotated(ctx *sim.Ctx, s *shared) {
	s.mu.Lock(ctx) //mgsp:crash-locked single-threaded mount path, no concurrent waiters
	s.dev.Store8(ctx, 0, 1)
	s.mu.Unlock(ctx)
}
