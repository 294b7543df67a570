package nova

import (
	"bytes"
	"testing"

	"mgsp/internal/fstest"
	"mgsp/internal/nvm"
	"mgsp/internal/sim"
	"mgsp/internal/vfs"
)

func TestBattery(t *testing.T) {
	fstest.Run(t, func(t *testing.T) vfs.FS {
		return New(nvm.New(96<<20, sim.ZeroCosts()))
	})
}

func TestEveryWriteDurableWithoutFsync(t *testing.T) {
	dev := nvm.New(16<<20, sim.ZeroCosts())
	fs := New(dev)
	ctx := sim.NewCtx(0, 1)
	f, err := fs.Create(ctx, "f")
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0x42}, 6000) // unaligned, multi-page
	f.WriteAt(ctx, data, 100)

	dev.Recover()
	fs2, err := Mount(ctx, dev)
	if err != nil {
		t.Fatalf("Mount: %v", err)
	}
	f2, err := fs2.Open(ctx, "f")
	if err != nil {
		t.Fatalf("Open after remount: %v", err)
	}
	if f2.Size() != 6100 {
		t.Fatalf("recovered size = %d, want 6100", f2.Size())
	}
	buf := make([]byte, 6000)
	f2.ReadAt(ctx, buf, 100)
	if !bytes.Equal(buf, data) {
		t.Fatal("data lost across remount without fsync (NOVA ops must be synchronous)")
	}
}

// TestCrashSweepWriteAtomicity crashes the device at every media-op index
// during a multi-page write and verifies the write is all-or-nothing.
func TestCrashSweepWriteAtomicity(t *testing.T) {
	const fileSize = 64 * 1024
	old := bytes.Repeat([]byte{0xAA}, fileSize)
	new_ := bytes.Repeat([]byte{0xBB}, 9000) // spans 3+ pages, unaligned

	for fail := int64(0); ; fail++ {
		dev := nvm.New(32<<20, sim.ZeroCosts())
		fs := New(dev)
		ctx := sim.NewCtx(0, 1)
		f, _ := fs.Create(ctx, "f")
		f.WriteAt(ctx, old, 0)

		dev.ArmCrash(fail, fail+100)
		f.WriteAt(ctx, new_, 1000)
		if !dev.Crashed() {
			// The whole op completed before the fail point: sweep is done.
			if fail == 0 {
				t.Fatal("crash sweep never triggered")
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
			t.Fatalf("fail=%d: Open: %v", fail, err)
		}
		buf := make([]byte, fileSize)
		n, _ := f2.ReadAt(ctx, buf, 0)
		want := make([]byte, fileSize)
		copy(want, old)
		if gotNew := bytes.Equal(buf[1000:1000+9000], new_); gotNew {
			copy(want[1000:], new_) // write committed: all of it must be there
		}
		if !bytes.Equal(buf[:n], want[:n]) {
			t.Fatalf("fail=%d: file is neither old nor new (torn write visible)", fail)
		}
	}
}

// TestSubPageWriteAmplification: a 1 KiB write must cost a full 4 KiB page
// plus a log entry (NOVA's CoW amplification, Figure 8/13 driver).
func TestSubPageWriteAmplification(t *testing.T) {
	dev := nvm.New(16<<20, sim.ZeroCosts())
	fs := New(dev)
	ctx := sim.NewCtx(0, 1)
	f, _ := fs.Create(ctx, "f")
	f.WriteAt(ctx, make([]byte, 4096), 0)

	dev.ResetStats()
	f.WriteAt(ctx, make([]byte, 1024), 0)
	wrote := dev.Stats().MediaWriteBytes.Load()
	if wrote < 4096+entrySize {
		t.Fatalf("1K overwrite wrote %d media bytes, want >= %d (CoW page + entry)", wrote, 4096+entrySize)
	}
	if wrote > 4096+entrySize+64 {
		t.Fatalf("1K overwrite wrote %d media bytes, too much", wrote)
	}
}

// TestCoWReleasesOldPages: steady-state overwrites must not leak blocks.
func TestCoWReleasesOldPages(t *testing.T) {
	dev := nvm.New(16<<20, sim.ZeroCosts())
	fs := New(dev)
	ctx := sim.NewCtx(0, 1)
	f, _ := fs.Create(ctx, "f")
	f.WriteAt(ctx, make([]byte, 16*4096), 0)
	used := fs.alloc.UsedBlocks()
	for i := 0; i < 50; i++ {
		f.WriteAt(ctx, make([]byte, 4096), int64(i%16)*4096)
	}
	// Only log pages may have grown.
	growth := fs.alloc.UsedBlocks() - used
	if growth > 2 {
		t.Fatalf("steady-state overwrites leaked %d blocks", growth)
	}
}

func TestLogPageChaining(t *testing.T) {
	dev := nvm.New(32<<20, sim.ZeroCosts())
	fs := New(dev)
	ctx := sim.NewCtx(0, 1)
	f, _ := fs.Create(ctx, "f")
	// More writes than one log page holds (63 entries).
	for i := 0; i < 200; i++ {
		f.WriteAt(ctx, []byte{byte(i)}, int64(i)*4096)
	}
	// Remount and verify everything replays across the chain.
	dev.Recover()
	fs2, err := Mount(ctx, dev)
	if err != nil {
		t.Fatal(err)
	}
	f2, _ := fs2.Open(ctx, "f")
	buf := make([]byte, 1)
	for i := 0; i < 200; i++ {
		f2.ReadAt(ctx, buf, int64(i)*4096)
		if buf[0] != byte(i) {
			t.Fatalf("page %d = %d after chained-log replay, want %d", i, buf[0], byte(i))
		}
	}
}

func TestRemoveReclaimsSpace(t *testing.T) {
	dev := nvm.New(16<<20, sim.ZeroCosts())
	fs := New(dev)
	ctx := sim.NewCtx(0, 1)
	f, _ := fs.Create(ctx, "f")
	f.WriteAt(ctx, make([]byte, 1<<20), 0)
	f.Close(ctx)
	if err := fs.Remove(ctx, "f"); err != nil {
		t.Fatal(err)
	}
	fs.alloc.Drain(ctx) // flush shard caches: exact-count audit below
	if used := fs.alloc.UsedBlocks(); used != 0 {
		t.Fatalf("%d blocks leaked after remove", used)
	}
	// The slot must be reusable and the file gone after remount.
	dev.Recover()
	fs2, err := Mount(ctx, dev)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs2.Open(ctx, "f"); err != vfs.ErrNotExist {
		t.Fatalf("removed file visible after remount: %v", err)
	}
}

func TestFsyncIsCheap(t *testing.T) {
	dev := nvm.New(16<<20, sim.DefaultCosts())
	fs := New(dev)
	ctx := sim.NewCtx(0, 1)
	f, _ := fs.Create(ctx, "f")
	f.WriteAt(ctx, make([]byte, 4096), 0)
	before := dev.Stats().MediaWriteBytes.Load()
	f.Fsync(ctx)
	if got := dev.Stats().MediaWriteBytes.Load() - before; got != 0 {
		t.Fatalf("NOVA fsync wrote %d media bytes, want 0", got)
	}
}

func TestConsistencyLevel(t *testing.T) {
	fs := New(nvm.New(1<<20, sim.ZeroCosts()))
	if fs.Consistency() != vfs.OpAtomic {
		t.Fatal("NOVA must advertise op-level atomicity")
	}
}
