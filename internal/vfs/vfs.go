// Package vfs defines the common file-system interface implemented by every
// system under evaluation (Ext4/Ext4-DAX, NOVA, Libnvmmio, MGSP), so that the
// FIO-like workload generator, the SQLite-like engine, and the crash-test
// harness can drive any of them interchangeably — the same role the POSIX
// syscall layer and LD_PRELOAD interception play in the paper's artifact.
package vfs

import (
	"errors"
	"fmt"
	"math"

	"mgsp/internal/nvm"
	"mgsp/internal/sim"
)

// Errors shared by all file-system implementations.
var (
	ErrNotExist = errors.New("vfs: file does not exist")
	ErrExist    = errors.New("vfs: file already exists")
	ErrClosed   = errors.New("vfs: file is closed")
	ErrReadOnly = errors.New("vfs: operation not permitted")
	ErrRange    = errors.New("vfs: write range out of bounds")
)

// CheckWrite rejects a write of n bytes at off that no file can hold: a
// negative offset, or an end past math.MaxInt64. The error wraps ErrRange.
func CheckWrite(off int64, n int) error {
	if off < 0 || off > math.MaxInt64-int64(n) {
		return fmt.Errorf("%w: %d bytes at offset %d", ErrRange, n, off)
	}
	return nil
}

// FS is a mounted file system on a simulated NVM device.
type FS interface {
	// Name returns the system's display name ("Ext4-DAX", "NOVA", ...).
	Name() string
	// Create creates (or truncates) a file and opens it.
	Create(ctx *sim.Ctx, name string) (File, error)
	// Open opens an existing file.
	Open(ctx *sim.Ctx, name string) (File, error)
	// Remove deletes a file that is not currently open.
	Remove(ctx *sim.Ctx, name string) error
	// Device exposes the underlying device for media-level accounting.
	Device() *nvm.Device
}

// File is an open file handle. Implementations must support concurrent calls
// from different workers (each with its own sim.Ctx), providing whatever
// isolation the modeled system provides.
type File interface {
	// ReadAt reads len(p) bytes at offset off. Short reads at EOF return the
	// number of bytes read and no error (callers know the file size).
	ReadAt(ctx *sim.Ctx, p []byte, off int64) (int, error)
	// WriteAt writes len(p) bytes at offset off, extending the file if
	// needed, and returns the number of bytes written.
	WriteAt(ctx *sim.Ctx, p []byte, off int64) (int, error)
	// Fsync makes previously written data durable according to the modeled
	// system's semantics (a no-op for systems with synchronous operations).
	Fsync(ctx *sim.Ctx) error
	// Truncate sets the file size.
	Truncate(ctx *sim.Ctx, size int64) error
	// Size returns the current file size in bytes.
	Size() int64
	// Close releases the handle. For MGSP this triggers log write-back when
	// the last handle closes (§III-D of the paper).
	Close(ctx *sim.Ctx) error
}

// ConsistencyLevel describes the crash-consistency guarantee a system gives,
// used by the crash-test harness to know what to assert.
type ConsistencyLevel int

const (
	// MetadataOnly: file data may be garbage after a crash (Ext4-DAX).
	MetadataOnly ConsistencyLevel = iota
	// SyncAtomic: data up to the last successful fsync is durable and the
	// fsync boundary is atomic (Libnvmmio).
	SyncAtomic
	// OpAtomic: every completed write is durable and an interrupted write is
	// all-or-nothing (NOVA, MGSP).
	OpAtomic
)

// Guarantees is implemented by file systems to advertise their consistency
// level to the crash-test harness.
type Guarantees interface {
	Consistency() ConsistencyLevel
}
