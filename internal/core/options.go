// Package core implements Multi-Granularity Shadow Paging (MGSP), the
// paper's contribution: a user-space crash-consistency layer for memory-
// mapped I/O on NVM built from
//
//   - shadow logging (§III-B): each tree node's log and its nearest valid
//     ancestor's log alternate between redo and undo roles, so every user
//     write costs exactly one data write — no double write, no checkpoint;
//   - a multi-granularity radix tree (MSL): each level logs at one
//     granularity (leaf 4 KiB with sub-block valid bits, coarser spans
//     above), chosen per write to minimize write amplification and metadata;
//   - bitmap metadata with lazy cleaning (§III-B2);
//   - a lock-free metadata log for operation-level atomicity (§III-C1);
//   - multiple-granularity locking with greedy locking, lazy intention
//     cleaning, and a minimum-search-tree cache (§III-C2).
//
// The package implements vfs.FS/vfs.File so the FIO and SQLite workloads can
// drive it interchangeably with the baselines, plus Mount for crash recovery.
//
// The locking discipline below is declared for the lockorder vet pass
// (cmd/mgspvet, DESIGN.md §15), which checks every blocking acquisition in
// this package and its importers against it interprocedurally:
//
// node.lock self-nests by protocol: lockOp and lockCoarse always descend the
// radix tree parent-before-child, so intra-class nesting cannot cycle.
//
//mgsp:lock-order FS.snapAdmin < FS.mu < file.sizeMu
//mgsp:lock-order FS.mu < file.snapMu
//mgsp:lock-order file.treeMu < file.snapMu
//mgsp:lock-order file.flock < file.sizeMu
//mgsp:lock-order-self node.lock
package core

import "fmt"

// LockMode selects the isolation strategy (the Figure 13 ablation axis).
type LockMode int

const (
	// LockMGL uses multiple-granularity locking over the radix tree.
	LockMGL LockMode = iota
	// LockFile takes a single file-level readers-writer lock per operation
	// (the coarse baseline the paper's "fine-grained locking" bar beats).
	LockFile
)

// Options configures an MGSP instance. The zero value is not valid; use
// DefaultOptions (the full system) or start from it for ablations.
type Options struct {
	// Degree is the radix tree fan-out (the paper uses 64: granularity
	// ladder 4K / 256K / 16M / 1G ...).
	Degree int
	// SubBits is the number of valid bits per leaf: the minimum update
	// granularity is 4096/SubBits bytes (the paper discusses 2 bits -> 2 KiB
	// and uses up to 64 B fine-grained units; the default 8 gives 512 B).
	// Must be a power of two between 1 and 16 (bitmap slots reserve 16 bits).
	SubBits int
	// MultiGranularity enables coarse-grained targets and leaf sub-block
	// updates. When false every write is handled at fixed 4 KiB granularity
	// with read-modify-write for partial blocks — the plain "shadow log"
	// baseline of Figure 13.
	MultiGranularity bool
	// Locking selects file-level or multiple-granularity locking. Under
	// LockMGL, reads that miss the frame tier first try the lock-free
	// version-validated path of optread.go and fall back to R locks.
	Locking LockMode
	// GreedyLocking enables the single-lock fast path when the file has one
	// reference (§III-C2, "greedy locking").
	GreedyLocking bool
	// LazyIntentionCleaning keeps intention locks cached across operations;
	// conflicting coarse acquirers descend to child locks instead of
	// waiting (§III-C2, "lazy cleaning for intention lock").
	LazyIntentionCleaning bool
	// MinSearchTree enables the cached minimum search subtree (§III-B1).
	MinSearchTree bool
	// CleanerInterval is the virtual-time period (nanoseconds) between
	// background cleaner passes: cold shadow subtrees are written back, their
	// log blocks reclaimed, and a checkpoint record persisted so Mount skips
	// replay of pre-checkpoint metadata entries (see internal/cleaner and
	// DESIGN.md §7). Zero disables the cleaner — logs are then only written
	// back at a file's last close — leaving all existing ablations
	// bit-identical. Negative values are invalid.
	CleanerInterval int64
	// CleanerBudget caps the log blocks one cleaner pass may reclaim; the
	// next pass resumes where the previous one stopped. Zero means an
	// unbounded pass; negative values are invalid. Ignored while
	// CleanerInterval is zero.
	CleanerBudget int64
	// CacheFrames enables the DRAM page-cache tier (internal/cache, DESIGN.md
	// §13) with at least that many 4 KiB frames (rounded up to the pool's set
	// geometry). The cache is write-through: single-block reads hit frames
	// via the optimistic latch-free protocol instead of the media, a miss
	// fills its frame while the read is pinned, and every write commits
	// through the shadow log before it patches frames. Zero disables the
	// cache — every ablation and recovery path is bit-identical to the
	// uncached system. Negative values are invalid.
	CacheFrames int
}

// DefaultOptions returns the full MGSP configuration evaluated in the paper.
// The background cleaner is off by default (the paper has no online cleaner);
// set CleanerInterval to enable it for sustained-write workloads.
func DefaultOptions() Options {
	return Options{
		Degree:                64,
		SubBits:               8,
		MultiGranularity:      true,
		Locking:               LockMGL,
		GreedyLocking:         true,
		LazyIntentionCleaning: true,
		MinSearchTree:         true,
	}
}

func (o Options) validate() error {
	if o.Degree < 2 || o.Degree > 1024 {
		return fmt.Errorf("core: Degree %d out of range [2,1024]", o.Degree)
	}
	if o.SubBits < 1 || o.SubBits > 16 || o.SubBits&(o.SubBits-1) != 0 {
		return fmt.Errorf("core: SubBits %d must be a power of two in [1,16]", o.SubBits)
	}
	if o.CleanerInterval < 0 {
		return fmt.Errorf("core: CleanerInterval %d must not be negative", o.CleanerInterval)
	}
	if o.CleanerBudget < 0 {
		return fmt.Errorf("core: CleanerBudget %d must not be negative", o.CleanerBudget)
	}
	if o.CacheFrames < 0 {
		return fmt.Errorf("core: CacheFrames %d must not be negative", o.CacheFrames)
	}
	return nil
}
