package core

import "mgsp/internal/obs"

// Stats exposes MGSP-internal counters so tests and tools can verify that
// the paper's optimizations actually engage (the Figure 13 story is only
// credible if, say, greedy locking demonstrably fires on single-user files
// and the minimum search tree demonstrably absorbs traversals). The fields
// are obs.Counter — same Add/Load/Store surface as atomic.Int64 — so the
// struct registers wholesale into the file system's obs.Registry at mount
// time while every existing accessor keeps working unchanged.
type Stats struct {
	// Writes and Reads count user operations. These and the byte tallies
	// below are obs.ShardedCounter: they are bumped on every single op by
	// every worker, and at 16-64 workers a shared counter cell becomes a
	// coherence hotspot of its own (the probes must never be the
	// contention they are supposed to measure). Sharded adds take the
	// worker id; Load sums the cells.
	Writes obs.ShardedCounter
	Reads  obs.ShardedCounter
	// UserWriteBytes / UserReadBytes count user payload bytes moved, the
	// logical side of the write-amplification ratio (media bytes over user
	// bytes) exported as wa.ratio.
	UserWriteBytes obs.ShardedCounter
	UserReadBytes  obs.ShardedCounter
	// ToggleToLog counts shadow toggles that placed new data in a node's
	// private log (redo role); ToggleToFallback counts toggles that wrote
	// through to the fallback (undo role). Their sum is the data-write count
	// of the shadow log — equal user writes at matching granularity.
	ToggleToLog      obs.Counter
	ToggleToFallback obs.Counter
	// MinSearchHits / MinSearchMisses count cached-subtree lookups.
	MinSearchHits   obs.Counter
	MinSearchMisses obs.Counter
	// GreedyOps counts operations that used the single-lock fast path;
	// Descends counts coarse acquisitions that descended past sticky
	// intentions (lazy cleaning at work). Both fire once per op — sharded.
	GreedyOps obs.ShardedCounter
	Descends  obs.ShardedCounter
	// MGLTryFails counts failed MGL try-acquisitions: racing lock attempts
	// that genuinely lost (cleaner try-locks, contended hint probes).
	// GreedyDemotions counts operations that wanted the greedy single-lock
	// fast path but ran demoted (multi-user file, open handles, busy
	// cleaner) — a capacity condition, not a lock-acquisition failure.
	// Earlier revisions folded demotions into MGLTryFails, which made the
	// counter read as a try-lock storm (~1 fail per op at 2+ workers) when
	// no try-lock was ever attempted. MGLIntentDrops counts sticky
	// intentions cleaned from ancestor nodes.
	MGLTryFails     obs.Counter
	GreedyDemotions obs.ShardedCounter
	MGLIntentDrops  obs.Counter
	// OptReads counts reads served by the optimistic lock-free path (the
	// file's writer gate validates the walk); OptReadFallbacks counts
	// optimistic attempts that bailed to the locked path because a writer
	// section was open or opened during the walk.
	OptReads         obs.ShardedCounter
	OptReadFallbacks obs.ShardedCounter
	// MetaEntries counts metadata-log entries committed (including chain
	// extensions). MetaCASRetries counts claim-slot CAS attempts that lost
	// to a concurrent claimer and had to probe on. MetaCursorWrites counts
	// per-worker area cursor persists (64B + fence each; steady state is
	// zero once every area's cursor covers its rotation).
	MetaEntries      obs.ShardedCounter
	MetaCASRetries   obs.Counter
	MetaCursorWrites obs.Counter
	// CleanerPasses, BlocksReclaimed and CheckpointsTaken count background
	// cleaner activity: completed passes, 4 KiB log blocks returned to the
	// allocator, and checkpoint records persisted. All zero while the
	// cleaner is disabled.
	CleanerPasses    obs.Counter
	BlocksReclaimed  obs.Counter
	CheckpointsTaken obs.Counter
	// EntriesReplayed / EntriesSkipped count metadata-log entries applied vs
	// skipped (stamped before the checkpoint epoch) during Mount recovery.
	// SlotsBounded counts log slots recovery did NOT have to scan because a
	// valid area cursor bounded the area (the per-worker home-slot payoff).
	EntriesReplayed obs.Counter
	EntriesSkipped  obs.Counter
	SlotsBounded    obs.Counter
	// SnapshotsTaken / SnapshotsDropped count snapshot lifecycle events.
	SnapshotsTaken   obs.Counter
	SnapshotsDropped obs.Counter
	// SnapshotPins counts copy-on-write pins created (frozen node views);
	// SnapshotCoWRewrites counts writes that relocated a node's log to a
	// fresh block because the old one was frozen or pin-shared. Both stay
	// zero while no snapshot is live — the zero-copy fast path is untouched.
	SnapshotPins        obs.Counter
	SnapshotCoWRewrites obs.Counter
	// SnapshotReads counts reads served through snapshot handles.
	SnapshotReads obs.Counter
}

// register publishes every counter into r under the "core." prefix.
func (s *Stats) register(r *obs.Registry) {
	for _, c := range []struct {
		name string
		c    *obs.Counter
	}{
		{"core.toggle_to_log", &s.ToggleToLog},
		{"core.toggle_to_fallback", &s.ToggleToFallback},
		{"core.min_search_hits", &s.MinSearchHits},
		{"core.min_search_misses", &s.MinSearchMisses},
		{"core.mgl_try_fails", &s.MGLTryFails},
		{"core.mgl_intent_drops", &s.MGLIntentDrops},
		{"core.meta_cas_retries", &s.MetaCASRetries},
		{"core.meta_cursor_writes", &s.MetaCursorWrites},
		{"core.cleaner_passes", &s.CleanerPasses},
		{"core.blocks_reclaimed", &s.BlocksReclaimed},
		{"core.checkpoints_taken", &s.CheckpointsTaken},
		{"core.entries_replayed", &s.EntriesReplayed},
		{"core.entries_skipped", &s.EntriesSkipped},
		{"core.recovery_slots_bounded", &s.SlotsBounded},
		{"core.snapshots_taken", &s.SnapshotsTaken},
		{"core.snapshots_dropped", &s.SnapshotsDropped},
		{"core.snapshot_pins", &s.SnapshotPins},
		{"core.snapshot_cow_rewrites", &s.SnapshotCoWRewrites},
		{"core.snapshot_reads", &s.SnapshotReads},
	} {
		r.RegisterCounter(c.name, c.c)
	}
	for _, c := range []struct {
		name string
		c    *obs.ShardedCounter
	}{
		{"core.writes", &s.Writes},
		{"core.reads", &s.Reads},
		{"core.user_write_bytes", &s.UserWriteBytes},
		{"core.user_read_bytes", &s.UserReadBytes},
		{"core.greedy_ops", &s.GreedyOps},
		{"core.greedy_demotions", &s.GreedyDemotions},
		{"core.descends", &s.Descends},
		{"core.opt_reads", &s.OptReads},
		{"core.opt_read_fallbacks", &s.OptReadFallbacks},
		{"core.meta_entries", &s.MetaEntries},
	} {
		r.RegisterSharded(c.name, c.c)
	}
}

// Stats returns the live counters.
func (fs *FS) Stats() *Stats { return &fs.stats }

// Obs returns the file system's metric registry (one per FS, populated at
// mount with core, nvm, and derived metrics plus the latency histograms).
func (fs *FS) Obs() *obs.Registry { return fs.obsReg }

// TraceRing returns the file system's flight recorder, nil when tracing was
// not enabled.
func (fs *FS) TraceRing() *obs.TraceRing { return fs.trace }
