// Package mgsp is the public API of the MGSP reproduction: Multi-Granularity
// Shadow Paging for crash-consistent memory-mapped I/O on NVM (Du et al.,
// HPCA 2023).
//
// The package re-exports the simulation substrate and the MGSP core so that
// applications can be written against one import:
//
//	dev := mgsp.NewDevice(256<<20, mgsp.DefaultCosts())
//	fs, _ := mgsp.New(dev, mgsp.DefaultOptions())
//	ctx := mgsp.NewCtx(0, 42)
//	f, _ := fs.Create(ctx, "data")
//	f.WriteAt(ctx, payload, 0) // failure-atomic, synchronized
//	f.Close(ctx)               // write-back + metadata release
//
// Every operation is a synchronized atomic operation: there is no fsync to
// schedule and no double write to hide. After a crash, Mount replays the
// lock-free metadata log and keeps the shadow logs; each file's next last
// Close writes them back:
//
//	dev.Recover()
//	fs, err := mgsp.Mount(ctx, dev, mgsp.DefaultOptions())
//
// All I/O happens against a simulated NVM device with a calibrated virtual-
// time cost model (see internal/sim and DESIGN.md): results are deterministic
// and preserve the performance shapes reported in the paper.
package mgsp

import (
	"mgsp/internal/core"
	"mgsp/internal/nvm"
	"mgsp/internal/sim"
	"mgsp/internal/vfs"
)

// Ctx is a per-worker context carrying the virtual clock and PRNG. Use one
// Ctx per goroutine.
type Ctx = sim.Ctx

// NewCtx returns a worker context with the given id and random seed.
func NewCtx(id int, seed int64) *Ctx { return sim.NewCtx(id, seed) }

// Costs is the hardware/kernel cost model used to charge virtual time.
type Costs = sim.Costs

// DefaultCosts returns the Optane-calibrated cost model used by the paper's
// benchmarks.
func DefaultCosts() Costs { return sim.DefaultCosts() }

// ZeroCosts returns a free cost model (functional testing).
func ZeroCosts() Costs { return sim.ZeroCosts() }

// Device is a simulated byte-addressable NVM device with crash injection
// and media-level accounting. An armed crash cuts power: the durable image
// freezes, ops keep running on the volatile overlay, and Crashed reports the
// cut so drivers can stop before their next op.
type Device = nvm.Device

// NewDevice creates a device of the given size.
func NewDevice(size int64, costs Costs) *Device { return nvm.New(size, costs) }

// Options configures MGSP (granularity ladder, locking strategy, and the
// paper's optional optimizations); see DefaultOptions.
type Options = core.Options

// LockMode selects MGSP's isolation strategy.
type LockMode = core.LockMode

// Lock modes.
const (
	LockMGL  = core.LockMGL
	LockFile = core.LockFile
)

// DefaultOptions returns the full MGSP configuration evaluated in the paper:
// degree-64 radix tree, 512-byte minimum update units, multi-granularity
// shadow logging, MGL with greedy locking and lazy intention cleaning, and
// the minimum search tree cache.
func DefaultOptions() Options { return core.DefaultOptions() }

// FS is a mounted MGSP file system.
type FS = core.FS

// File is an open file handle. ReadAt/WriteAt are failure-atomic and
// synchronized; Fsync is a no-op fence; Close writes the shadow logs back.
type File = vfs.File

// ErrNotExist is returned when opening a file that does not exist.
var ErrNotExist = vfs.ErrNotExist

// Update is one range of a multi-range atomic write.
type Update = core.Update

// MultiWriter is implemented by MGSP file handles: WriteMulti applies
// several disjoint updates as one failure-atomic operation (the
// transaction-level atomicity the paper lists as future work — it falls out
// of the metadata-log commit protocol naturally). It is the same commit as
// WriteAt, which is its one-update case; empty updates are skipped.
//
//	f, _ := fs.Create(ctx, "db")
//	f.(mgsp.MultiWriter).WriteMulti(ctx, []mgsp.Update{...})
type MultiWriter interface {
	WriteMulti(ctx *Ctx, updates []Update) error
}

// SnapID identifies one snapshot of one file.
type SnapID = core.SnapID

// SnapInfo describes a live snapshot: its frozen size and the pin footprint
// (directory records and log blocks) it keeps alive.
type SnapInfo = core.SnapInfo

// Snapshot errors. Snapshot/OpenSnapshot/DropSnapshot/Snapshots are methods
// on FS; frozen images are read through ordinary File handles. See
// internal/snapshot for the clone-capable manager built on top.
var (
	// ErrHasSnapshots is returned by Remove, Truncate, and Create-over-
	// existing while the file still has live snapshots.
	ErrHasSnapshots = core.ErrHasSnapshots
	// ErrSnapshotNotFound is returned for an unknown snapshot id.
	ErrSnapshotNotFound = core.ErrSnapshotNotFound
	// ErrSnapshotBusy is returned by DropSnapshot while handles are open.
	ErrSnapshotBusy = core.ErrSnapshotBusy
)

// New formats a fresh MGSP file system over the device.
func New(dev *Device, opts Options) (*FS, error) { return core.New(dev, opts) }

// Mount recovers an MGSP file system from a device image after a crash:
// interrupted operations are completed from the metadata log (or rolled
// back if uncommitted) and every file's shadow-log tree is rebuilt. The
// logs stay in place; the paper's write-back (§III-D) happens at each
// file's next last Close, so Mount's cost tracks the work in flight at the
// crash rather than the file size.
func Mount(ctx *Ctx, dev *Device, opts Options) (*FS, error) {
	return core.Mount(ctx, dev, opts)
}
