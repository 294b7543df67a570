// Package srv reconstructs internal/server's batcher shapes for the
// crashsafe-locks golden corpus. The group-commit flush (WriteMulti) and
// the namespace calls (Open/Create/Close) take ctx and reach media, so
// under a crash sweep they can panic at a fail point — shard state locks held
// across them leak to every other connection unless the unlock is deferred.
// Unlike the `a` corpus these locks are plain sync mutexes (the server's
// goroutines are real, not simulated workers); the discipline is the same.
package srv

import (
	"sync"

	"core"
	"sim"
)

type batcher struct {
	mu   sync.Mutex
	open map[string]*core.File
	f    *core.File
	fs   *core.FS
}

// badFlushUnderLock: the lock-held-across-batch-flush shape — if the
// group commit's media op panics mid-batch, b.mu stays locked and every
// later open/close on the shard deadlocks behind a dead batcher.
func (b *batcher) badFlushUnderLock(ctx *sim.Ctx, ups []core.Update) {
	b.mu.Lock() // want `b\.mu\.Lock held across potential crash point WriteMulti without a deferred unlock`
	b.f.WriteMulti(ctx, ups)
	b.mu.Unlock()
}

// badOpenUnderLock: first-open-wins insertion that holds the table lock
// across the namespace call.
func (b *batcher) badOpenUnderLock(ctx *sim.Ctx, key string) {
	b.mu.Lock() // want `b\.mu\.Lock held across potential crash point Open without a deferred unlock`
	if b.open[key] == nil {
		f, _ := b.fs.Open(ctx, key)
		b.open[key] = f
	}
	b.mu.Unlock()
}

// goodDeferredOpen: the server's openFile shape — the deferred unlock runs
// even when Open panics at a fail point.
func (b *batcher) goodDeferredOpen(ctx *sim.Ctx, key string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.open[key] == nil {
		f, _ := b.fs.Open(ctx, key)
		b.open[key] = f
	}
}

// goodUnlockBeforeFlush: the server's release/closeAll shape — mutate the
// table under the lock, drop it, then touch media with no lock held.
func (b *batcher) goodUnlockBeforeFlush(ctx *sim.Ctx, key string) {
	b.mu.Lock()
	f := b.open[key]
	delete(b.open, key)
	b.mu.Unlock()
	if f != nil {
		f.Close(ctx)
	}
}
