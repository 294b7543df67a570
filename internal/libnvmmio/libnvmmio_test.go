package libnvmmio

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"mgsp/internal/fstest"
	"mgsp/internal/nvm"
	"mgsp/internal/sim"
	"mgsp/internal/vfs"
)

func newTestFS() (*FS, *sim.Ctx) {
	return New(nvm.New(96<<20, sim.ZeroCosts())), sim.NewCtx(0, 1)
}

func TestBattery(t *testing.T) {
	fstest.Run(t, func(t *testing.T) vfs.FS {
		return New(nvm.New(96<<20, sim.ZeroCosts()))
	})
}

// TestRedoLoggingDefersHomeWrite: without fsync, data lives in the log;
// write amplification stays near 1 (Table II, Libnvmmio-wo-sync).
func TestRedoLoggingDefersHomeWrite(t *testing.T) {
	fs, ctx := newTestFS()
	f, _ := fs.Create(ctx, "f")
	dev := fs.Device()
	f.WriteAt(ctx, make([]byte, 4096), 0) // settle capacity/first block
	dev.ResetStats()

	const ops = 100
	for i := 0; i < ops; i++ {
		f.WriteAt(ctx, make([]byte, 4096), 0)
	}
	user := int64(ops * 4096)
	media := dev.Stats().MediaWriteBytes.Load()
	wa := float64(media) / float64(user)
	if wa > 1.1 {
		t.Fatalf("no-sync WA = %.3f, want ~1 (log-only writes)", wa)
	}
}

// TestFsyncCheckpointDoublesWrites: fsync per op forces the log write plus
// the checkpoint write-back (Table II, WA ~= 2).
func TestFsyncCheckpointDoublesWrites(t *testing.T) {
	fs, ctx := newTestFS()
	f, _ := fs.Create(ctx, "f")
	dev := fs.Device()
	f.WriteAt(ctx, make([]byte, 4096), 0)
	f.Fsync(ctx)
	dev.ResetStats()

	const ops = 100
	for i := 0; i < ops; i++ {
		f.WriteAt(ctx, make([]byte, 4096), 0)
		f.Fsync(ctx)
	}
	user := int64(ops * 4096)
	media := dev.Stats().MediaWriteBytes.Load()
	wa := float64(media) / float64(user)
	if wa < 1.8 || wa > 2.3 {
		t.Fatalf("sync-every-op WA = %.3f, want ~2 (double write)", wa)
	}
}

// TestDifferentialLogging: a 1 KiB write logs about 1 KiB, not a full block.
func TestDifferentialLogging(t *testing.T) {
	fs, ctx := newTestFS()
	f, _ := fs.Create(ctx, "f")
	dev := fs.Device()
	f.WriteAt(ctx, make([]byte, 4096), 0)
	dev.ResetStats()
	f.WriteAt(ctx, make([]byte, 1024), 1024) // unit-aligned 1K
	media := dev.Stats().MediaWriteBytes.Load()
	if media > 1024+64 {
		t.Fatalf("1K differential write logged %d bytes", media)
	}
}

// TestDataSurvivesCrashAfterFsync and is rolled back appropriately before.
func TestCrashSemantics(t *testing.T) {
	dev := nvm.New(96<<20, sim.ZeroCosts())
	fs := New(dev)
	ctx := sim.NewCtx(0, 1)
	f, _ := fs.Create(ctx, "f")

	committed := bytes.Repeat([]byte{0xAA}, 8192)
	f.WriteAt(ctx, committed, 0)
	f.Fsync(ctx)

	// Uncommitted epoch: these may be lost, but must not corrupt committed
	// data.
	f.WriteAt(ctx, bytes.Repeat([]byte{0xBB}, 1000), 500)

	dev.Recover()
	fs2, err := Mount(ctx, dev)
	if err != nil {
		t.Fatalf("Mount: %v", err)
	}
	f2, err := fs2.Open(ctx, "f")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8192)
	n, _ := f2.ReadAt(ctx, buf, 0)
	if n != 8192 {
		t.Fatalf("recovered size read = %d", n)
	}
	for i, b := range buf {
		ok := b == 0xAA || (i >= 500 && i < 1500 && b == 0xBB)
		if !ok {
			t.Fatalf("byte %d = %#x after recovery: neither committed nor written data", i, b)
		}
	}
}

// TestCrashSweepFsyncBoundary sweeps fail points across a write+fsync pair
// and asserts the SyncAtomic guarantee: data from the last successful fsync
// is always intact.
func TestCrashSweepFsyncBoundary(t *testing.T) {
	base := bytes.Repeat([]byte{0x11}, 16384)
	update := bytes.Repeat([]byte{0x22}, 3000)

	for fail := int64(0); ; fail++ {
		dev := nvm.New(96<<20, sim.ZeroCosts())
		fs := New(dev)
		ctx := sim.NewCtx(0, 1)
		f, _ := fs.Create(ctx, "f")
		f.WriteAt(ctx, base, 0)
		f.Fsync(ctx)

		dev.ArmCrash(fail, fail+31)
		for _, off := range []int64{1000, 9000} {
			if !dev.Crashed() {
				f.WriteAt(ctx, update, off)
			}
			if !dev.Crashed() {
				f.Fsync(ctx)
			}
		}
		if !dev.Crashed() {
			if fail == 0 {
				t.Fatal("sweep never crashed")
			}
			return
		}
		dev.Recover()
		fs2, err := Mount(ctx, dev)
		if err != nil {
			t.Fatalf("fail=%d: Mount: %v", fail, err)
		}
		f2, err := fs2.Open(ctx, "f")
		if err != nil {
			t.Fatalf("fail=%d: %v", fail, err)
		}
		buf := make([]byte, 16384)
		f2.ReadAt(ctx, buf, 0)
		// Invariant: every byte is 0x11 or 0x22, and the base write (last
		// successful fsync at minimum) is never lost.
		for i, b := range buf {
			if b != 0x11 && b != 0x22 {
				t.Fatalf("fail=%d: byte %d = %#x (garbage after recovery)", fail, i, b)
			}
			in1 := i >= 1000 && i < 4000
			in2 := i >= 9000 && i < 12000
			if !in1 && !in2 && b != 0x11 {
				t.Fatalf("fail=%d: byte %d = %#x outside any write range", fail, i, b)
			}
		}
	}
}

// TestHybridSwitchesToUndoForReadDominantBlocks.
func TestHybridPolicy(t *testing.T) {
	fs, ctx := newTestFS()
	f, _ := fs.Create(ctx, "f")
	f.WriteAt(ctx, make([]byte, 4096), 0)
	f.Fsync(ctx) // empty the log so the policy can switch

	// Make block 0 read-dominant.
	buf := make([]byte, 4096)
	for i := 0; i < 10; i++ {
		f.ReadAt(ctx, buf, 0)
	}
	f.WriteAt(ctx, []byte("fresh"), 0)

	ff := fs.files["f"]
	bl := ff.index[0]
	if bl == nil || !bl.undo {
		t.Fatal("read-dominant block did not switch to undo logging")
	}
	// Undo blocks serve reads from the file in place: the new data must be
	// visible directly.
	f.ReadAt(ctx, buf[:5], 0)
	if string(buf[:5]) != "fresh" {
		t.Fatalf("undo in-place write not visible: %q", buf[:5])
	}
}

// TestCheckpointClearsDirtySet: the second fsync with no writes is cheap.
func TestCheckpointClearsDirty(t *testing.T) {
	fs, ctx := newTestFS()
	f, _ := fs.Create(ctx, "f")
	f.WriteAt(ctx, make([]byte, 16384), 0)
	f.Fsync(ctx)
	dev := fs.Device()
	dev.ResetStats()
	f.Fsync(ctx)
	if w := dev.Stats().MediaWriteBytes.Load(); w > 16 {
		t.Fatalf("idle fsync wrote %d bytes", w)
	}
}

// TestReadMergesLogAndFile: after a partial-block logged write, a read must
// see log data where logged and file data elsewhere.
func TestReadMergesLogAndFile(t *testing.T) {
	fs, ctx := newTestFS()
	f, _ := fs.Create(ctx, "f")
	fileData := bytes.Repeat([]byte{0x0F}, 4096)
	f.WriteAt(ctx, fileData, 0)
	f.Fsync(ctx) // now in the file

	patch := bytes.Repeat([]byte{0xF0}, 100)
	f.WriteAt(ctx, patch, 2000) // logged only

	buf := make([]byte, 4096)
	f.ReadAt(ctx, buf, 0)
	want := append([]byte{}, fileData...)
	copy(want[2000:], patch)
	if !bytes.Equal(buf, want) {
		t.Fatal("merged read mismatch")
	}
}

func TestConsistencyLevel(t *testing.T) {
	fs, _ := newTestFS()
	if fs.Consistency() != vfs.SyncAtomic {
		t.Fatal("Libnvmmio must advertise sync-level atomicity")
	}
}

// TestRemovedFileLogsDiscardedOnRecovery.
func TestRemovedFileLogsCleared(t *testing.T) {
	dev := nvm.New(96<<20, sim.ZeroCosts())
	fs := New(dev)
	ctx := sim.NewCtx(0, 1)
	f, _ := fs.Create(ctx, "f")
	f.WriteAt(ctx, make([]byte, 4096), 0)
	f.Close(ctx)
	fs.Remove(ctx, "f")

	dev.Recover()
	fs2, err := Mount(ctx, dev)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs2.Open(ctx, "f"); err != vfs.ErrNotExist {
		t.Fatalf("removed file exists after recovery: %v", err)
	}
}

// TestConcurrentWritersAndFsync regression-tests the checkpoint/write lock
// ordering: concurrent writers (holding block locks, marking dirty) and
// fsyncers (holding the checkpoint lock, taking block locks) must not
// deadlock.
func TestConcurrentWritersAndFsync(t *testing.T) {
	fs, _ := newTestFS()
	setup := sim.NewCtx(9, 1)
	f, _ := fs.Create(setup, "f")
	f.WriteAt(setup, make([]byte, 1<<20), 0)

	done := make(chan struct{})
	go func() {
		var wg sync.WaitGroup
		for w := 0; w < 6; w++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				ctx := sim.NewCtx(id, int64(id))
				h, _ := fs.Open(ctx, "f")
				for i := 0; i < 300; i++ {
					off := int64(ctx.Rand.Intn(1<<20-1024)) &^ 1023
					h.WriteAt(ctx, make([]byte, 1024), off)
					if i%3 == 0 {
						h.Fsync(ctx)
					}
				}
			}(w)
		}
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("writer/fsync deadlock")
	}
}
