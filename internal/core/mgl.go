package core

import (
	"sync"

	"mgsp/internal/sim"
)

// lockMode is one of the four Multiple Granularity Locking modes from
// Table I of the paper (Gray et al.'s classic hierarchy).
type lockMode int

const (
	lockIR lockMode = iota // intention read
	lockIW                 // intention write
	lockR                  // read (shared)
	lockW                  // write (exclusive)
	numModes
)

// String returns the mode's Table I abbreviation.
func (m lockMode) String() string {
	return [...]string{"IR", "IW", "R", "W"}[m]
}

// compatible implements the paper's Table I.
//
//	     IR  IW  R   W
//	IR   ok  ok  ok  -
//	IW   ok  ok  -   -
//	R    ok  -   ok  -
//	W    -   -   -   -
func compatible(held, want lockMode) bool {
	switch want {
	case lockIR:
		return held != lockW
	case lockIW:
		return held == lockIR || held == lockIW
	case lockR:
		return held == lockIR || held == lockR
	default: // lockW
		return false
	}
}

// conflictSet lists, per mode, the modes it conflicts with.
var conflictSet = [numModes][]lockMode{
	lockIR: {lockW},
	lockIW: {lockR, lockW},
	lockR:  {lockIW, lockW},
	lockW:  {lockIR, lockIW, lockR, lockW},
}

const lockCostAtomic = 20 // ns; MGSP uses GCC atomic builtins, not futexes

// mglLock is one tree node's lock. Real mutual exclusion uses counters and
// a condition variable; virtual-time contention books per-mode interval
// lists so that only sections that genuinely overlap in virtual time
// serialize (see sim.Mutex for why high-water marks are wrong under bursty
// goroutine scheduling).
type mglLock struct {
	mu   sync.Mutex
	cond *sync.Cond

	ir, iw, r, w int

	ivs    [numModes]sim.GapList
	starts map[holderKey]int64
}

type holderKey struct {
	ctx  *sim.Ctx
	mode lockMode
}

func (l *mglLock) init() {
	if l.cond == nil {
		l.cond = sync.NewCond(&l.mu)
		l.starts = make(map[holderKey]int64)
	}
}

// grantable reports whether mode can be granted given current holders,
// per the compatibility table.
func (l *mglLock) grantable(mode lockMode) bool {
	switch mode {
	case lockIR:
		return l.w == 0
	case lockIW:
		return l.w == 0 && l.r == 0
	case lockR:
		return l.w == 0 && l.iw == 0
	default: // lockW
		return l.w == 0 && l.r == 0 && l.iw == 0 && l.ir == 0
	}
}

// Lock acquires mode, blocking until compatible.
func (l *mglLock) Lock(ctx *sim.Ctx, mode lockMode) {
	l.mu.Lock()
	l.init()
	for !l.grantable(mode) {
		l.cond.Wait()
	}
	l.grant(ctx, mode)
	l.mu.Unlock()
	ctx.Advance(lockCostAtomic)
}

// TryLock acquires mode only if immediately grantable.
func (l *mglLock) TryLock(ctx *sim.Ctx, mode lockMode) bool {
	l.mu.Lock()
	l.init()
	if !l.grantable(mode) {
		l.mu.Unlock()
		return false
	}
	l.grant(ctx, mode)
	l.mu.Unlock()
	ctx.Advance(lockCostAtomic)
	return true
}

// TryLockHint is TryLock, additionally reporting on failure whether the
// conflict came only from intention holders (no R/W): the background cleaner
// then descends to child locks — the try-lock analogue of LockLazy's
// handling of sticky intentions — instead of counting an idle worker's
// cached intent as real contention.
func (l *mglLock) TryLockHint(ctx *sim.Ctx, mode lockMode) (ok, intentOnly bool) {
	l.mu.Lock()
	l.init()
	if !l.grantable(mode) {
		intentOnly = l.r == 0 && l.w == 0
		l.mu.Unlock()
		return false, intentOnly
	}
	l.grant(ctx, mode)
	l.mu.Unlock()
	ctx.Advance(lockCostAtomic)
	return true, false
}

// LockLazy acquires mode, except that when the only remaining conflict is
// intention locks it returns false instead of waiting — sticky intentions
// left by lazy cleaning are never released by their (idle) owners, so the
// caller must descend and lock children instead (§III-C2, "lazy cleaning for
// intention lock": "MGSP will try to obtain read/write locks on all child
// nodes when other locks conflict with intention locks"). It still blocks on
// R/W conflicts, which are always op-scoped.
func (l *mglLock) LockLazy(ctx *sim.Ctx, mode lockMode) bool {
	l.mu.Lock()
	l.init()
	for {
		if l.grantable(mode) {
			l.grant(ctx, mode)
			l.mu.Unlock()
			ctx.Advance(lockCostAtomic)
			return true
		}
		if l.r == 0 && l.w == 0 {
			l.mu.Unlock()
			return false
		}
		l.cond.Wait()
	}
}

// grant books the section start: the earliest virtual point at or after the
// acquirer's clock that is free of every conflicting mode's sections.
func (l *mglLock) grant(ctx *sim.Ctx, mode lockMode) {
	pos := ctx.Now()
	for {
		p := pos
		for _, c := range conflictSet[mode] {
			p = l.ivs[c].FindStart(p, 1)
		}
		if p == pos {
			break
		}
		pos = p
	}
	l.starts[holderKey{ctx, mode}] = pos
	ctx.AdvanceTo(pos)
	switch mode {
	case lockIR:
		l.ir++
	case lockIW:
		l.iw++
	case lockR:
		l.r++
	case lockW:
		l.w++
	}
}

// Unlock releases mode, booking the holder's virtual section in the first
// gap free of all conflicting modes' sections (pushing the holder's clock
// if the tentative placement collided).
func (l *mglLock) Unlock(ctx *sim.Ctx, mode lockMode) {
	l.mu.Lock()
	l.init()
	k := holderKey{ctx, mode}
	if start, ok := l.starts[k]; ok {
		delete(l.starts, k)
		dur := ctx.Now() - start
		if dur < 1 {
			dur = 1
		}
		pos := start
		for {
			p := pos
			for _, c := range conflictSet[mode] {
				p = l.ivs[c].FindStart(p, dur)
			}
			if p == pos {
				break
			}
			pos = p
		}
		l.ivs[mode].Insert(pos, pos+dur)
		ctx.Advance(pos - start)
	}
	switch mode {
	case lockIR:
		l.ir--
	case lockIW:
		l.iw--
	case lockR:
		l.r--
	case lockW:
		l.w--
	}
	if l.ir < 0 || l.iw < 0 || l.r < 0 || l.w < 0 {
		panic("core: mgl lock underflow")
	}
	l.cond.Broadcast()
	l.mu.Unlock()
}
