package nova

import (
	"bytes"
	"testing"

	"mgsp/internal/nvm"
	"mgsp/internal/sim"
)

// TestGCBoundsLogGrowth: heavy overwrites must not grow the log without
// bound once compaction kicks in.
func TestGCBoundsLogGrowth(t *testing.T) {
	dev := nvm.New(64<<20, sim.ZeroCosts())
	fs := New(dev)
	ctx := sim.NewCtx(0, 1)
	f, _ := fs.Create(ctx, "f")
	f.WriteAt(ctx, make([]byte, 64*1024), 0) // 16 pages of data

	for i := 0; i < 5000; i++ {
		f.WriteAt(ctx, make([]byte, 4096), int64(i%16)*4096)
	}
	ino := fs.files["f"]
	if ino.logPages > 2*gcLogPages {
		t.Fatalf("log grew to %d pages despite GC", ino.logPages)
	}
	// Space check: data pages + small log, not thousands of log pages.
	if used := fs.alloc.UsedBlocks(); used > 100 {
		t.Fatalf("%d blocks used after overwrite churn (log leak)", used)
	}
}

// TestGCPreservesContentAndRecovery: content survives compaction, both live
// and across a remount.
func TestGCPreservesContent(t *testing.T) {
	dev := nvm.New(64<<20, sim.ZeroCosts())
	fs := New(dev)
	ctx := sim.NewCtx(0, 1)
	f, _ := fs.Create(ctx, "f")
	ref := make([]byte, 128*1024)
	f.WriteAt(ctx, ref, 0)
	for i := 0; i < 3000; i++ {
		off := ctx.Rand.Int63n(int64(len(ref)-5000)) &^ 511
		pat := bytes.Repeat([]byte{byte(i + 1)}, 512+ctx.Rand.Intn(4096))
		f.WriteAt(ctx, pat, off)
		copy(ref[off:], pat)
	}
	buf := make([]byte, len(ref))
	f.ReadAt(ctx, buf, 0)
	if !bytes.Equal(buf, ref) {
		t.Fatal("content diverged during GC churn")
	}
	dev.Recover()
	fs2, err := Mount(ctx, dev)
	if err != nil {
		t.Fatalf("Mount after GC: %v", err)
	}
	f2, _ := fs2.Open(ctx, "f")
	f2.ReadAt(ctx, buf, 0)
	if !bytes.Equal(buf, ref) {
		t.Fatal("content lost across remount after GC")
	}
}

// TestGCCrashAtomicity: crashes during compaction leave a mountable,
// correct file (old or new chain, never a broken one).
func TestGCCrashAtomicity(t *testing.T) {
	for fail := int64(5); fail < 3000; fail += 97 {
		dev := nvm.New(64<<20, sim.ZeroCosts())
		fs := New(dev)
		ctx := sim.NewCtx(0, fail)
		f, _ := fs.Create(ctx, "f")
		ref := make([]byte, 64*1024)
		f.WriteAt(ctx, ref, 0)

		dev.ArmCrash(fail, fail)
		written := map[int64]byte{}
		for i := 0; i < 2000 && !dev.Crashed(); i++ {
			off := int64(i%16) * 4096
			pat := byte(i%250 + 1)
			if _, err := f.WriteAt(ctx, bytes.Repeat([]byte{pat}, 4096), off); err != nil || dev.Crashed() {
				break
			}
			written[off] = pat
		}
		dev.DisarmCrash()
		dev.Recover()
		fs2, err := Mount(ctx, dev)
		if err != nil {
			t.Fatalf("fail=%d: Mount: %v", fail, err)
		}
		f2, err := fs2.Open(ctx, "f")
		if err != nil {
			t.Fatalf("fail=%d: %v", fail, err)
		}
		buf := make([]byte, 4096)
		for off, pat := range written {
			f2.ReadAt(ctx, buf, off)
			// The last write to this offset may have been in flight; accept
			// the recorded pattern or any older uniform pattern, but never a
			// torn page.
			first := buf[0]
			for i, b := range buf {
				if b != first {
					t.Fatalf("fail=%d: page %d torn at %d", fail, off, i)
				}
			}
			_ = pat
		}
	}
}
