package ext4

import (
	"bytes"
	"testing"

	"mgsp/internal/fstest"
	"mgsp/internal/nvm"
	"mgsp/internal/sim"
	"mgsp/internal/vfs"
)

func newFS(t *testing.T, mode Mode) *FS {
	t.Helper()
	return New(nvm.New(64<<20, sim.ZeroCosts()), mode)
}

func TestBatteryDAX(t *testing.T) {
	fstest.Run(t, func(t *testing.T) vfs.FS { return newFS(t, DAX) })
}

func TestBatteryOrdered(t *testing.T) {
	fstest.Run(t, func(t *testing.T) vfs.FS { return newFS(t, Ordered) })
}

func TestBatteryJournal(t *testing.T) {
	fstest.Run(t, func(t *testing.T) vfs.FS { return newFS(t, Journal) })
}

func TestBatteryWriteback(t *testing.T) {
	fstest.Run(t, func(t *testing.T) vfs.FS { return newFS(t, Writeback) })
}

func TestModeNames(t *testing.T) {
	want := map[Mode]string{DAX: "Ext4-DAX", Writeback: "Ext4-wb", Ordered: "Ext4-ordered", Journal: "Ext4-journal"}
	for m, n := range want {
		if m.String() != n {
			t.Errorf("mode %d name = %q, want %q", m, m.String(), n)
		}
	}
}

// TestDAXDataDurableWithoutFsync: DAX writes use non-temporal stores, so
// data survives a crash even without fsync (only metadata is at risk).
func TestDAXDataDurableWithoutFsync(t *testing.T) {
	dev := nvm.New(16<<20, sim.ZeroCosts())
	fs := New(dev, DAX)
	ctx := sim.NewCtx(0, 1)
	f, err := fs.Create(ctx, "f")
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0x5A}, 8192)
	f.WriteAt(ctx, data, 0)
	dev.Recover()
	buf := make([]byte, len(data))
	f.ReadAt(ctx, buf, 0)
	if !bytes.Equal(buf, data) {
		t.Fatal("DAX write did not survive volatile drop")
	}
}

// TestPageCacheDataVolatileWithoutFsync: ordered-mode data written only to
// the page cache is lost if the machine dies before fsync — the motivation
// for Figure 1's -sync variants.
func TestPageCacheDataVolatileBeforeFsync(t *testing.T) {
	dev := nvm.New(16<<20, sim.ZeroCosts())
	fs := New(dev, Ordered)
	ctx := sim.NewCtx(0, 1)
	f, _ := fs.Create(ctx, "f")
	dev.ResetStats()
	data := bytes.Repeat([]byte{0x77}, 4096)
	f.WriteAt(ctx, data, 0)

	if w := dev.Stats().MediaWriteBytes.Load(); w != 0 {
		t.Fatalf("page-cache write reached media early: %d bytes", w)
	}
	f.Fsync(ctx)
	// After fsync, data must be on media at its home location.
	if w := dev.Stats().MediaWriteBytes.Load(); w < 4096 {
		t.Fatalf("fsync wrote only %d media bytes", w)
	}
}

// TestJournalModeDoublesDataWrites: data=journal writes each dirty page to
// the journal and to its home location.
func TestJournalModeDoubleWrite(t *testing.T) {
	mkBytes := func(mode Mode) int64 {
		dev := nvm.New(32<<20, sim.ZeroCosts())
		fs := New(dev, mode)
		ctx := sim.NewCtx(0, 1)
		f, _ := fs.Create(ctx, "f")
		dev.ResetStats()
		f.WriteAt(ctx, make([]byte, 256*1024), 0)
		f.Fsync(ctx)
		return dev.Stats().MediaWriteBytes.Load()
	}
	ordered := mkBytes(Ordered)
	journal := mkBytes(Journal)
	if journal < ordered+256*1024 {
		t.Fatalf("journal mode wrote %d bytes, ordered %d; journal must double the data", journal, ordered)
	}
}

// TestDAXFsyncCheaperThanJournalModes: the DAX fsync path with no metadata
// change is a fence, not a journal commit.
func TestDAXFsyncCost(t *testing.T) {
	dev := nvm.New(16<<20, sim.DefaultCosts())
	fs := New(dev, DAX)
	ctx := sim.NewCtx(0, 1)
	f, _ := fs.Create(ctx, "f")
	f.WriteAt(ctx, make([]byte, 4096), 0)
	f.Fsync(ctx) // first fsync commits metadata (size change)

	before := dev.Stats().MediaWriteBytes.Load()
	f.WriteAt(ctx, make([]byte, 4096), 0) // overwrite: no metadata change
	f.Fsync(ctx)
	wrote := dev.Stats().MediaWriteBytes.Load() - before
	if wrote != 4096 {
		t.Fatalf("steady-state DAX overwrite+fsync wrote %d media bytes, want 4096", wrote)
	}
}

// TestInodeLockSerializesWriters: concurrent writers to one file serialize
// on i_rwsem in virtual time — the Figure 10 scalability ceiling.
func TestInodeLockSerializesWriters(t *testing.T) {
	dev := nvm.New(64<<20, sim.DefaultCosts())
	fs := New(dev, DAX)
	setup := sim.NewCtx(9, 1)
	f, _ := fs.Create(setup, "f")
	f.WriteAt(setup, make([]byte, 1<<20), 0)

	run := func(workers int) int64 {
		dev.Timeline().Reset()
		ctxs := make([]*sim.Ctx, workers)
		done := make(chan struct{})
		for i := range ctxs {
			ctxs[i] = sim.NewCtx(i, int64(i))
			go func(c *sim.Ctx) {
				buf := make([]byte, 4096)
				for j := 0; j < 200; j++ {
					off := int64(c.Rand.Intn(256)) * 4096
					f.WriteAt(c, buf, off)
				}
				done <- struct{}{}
			}(ctxs[i])
		}
		for range ctxs {
			<-done
		}
		return sim.MaxTime(ctxs)
	}
	t1 := run(1)
	t4 := run(4)
	// 4 workers do 4x the ops; with a file-level lock the elapsed virtual
	// time must grow nearly 4x (no intra-file parallelism).
	if t4 < 3*t1 {
		t.Fatalf("4-thread time %d < 3x single-thread time %d: inode lock failed to serialize", t4, t1)
	}
}

func TestExtentLookupAcrossChunks(t *testing.T) {
	dev := nvm.New(64<<20, sim.ZeroCosts())
	fs := New(dev, DAX)
	ctx := sim.NewCtx(0, 1)
	f, _ := fs.Create(ctx, "f")
	// Force multiple extents by interleaving two files' growth.
	g, _ := fs.Create(ctx, "g")
	pat := func(b byte) []byte { return bytes.Repeat([]byte{b}, 512*1024) }
	f.WriteAt(ctx, pat(1), 0)
	g.WriteAt(ctx, pat(2), 0)
	f.WriteAt(ctx, pat(3), 512*1024)
	g.WriteAt(ctx, pat(4), 512*1024)

	buf := make([]byte, 512*1024)
	f.ReadAt(ctx, buf, 512*1024)
	for i, b := range buf {
		if b != 3 {
			t.Fatalf("byte %d = %d, want 3 (extent mapping broken)", i, b)
		}
	}
	g.ReadAt(ctx, buf, 0)
	for i, b := range buf {
		if b != 2 {
			t.Fatalf("byte %d = %d, want 2 (cross-file extent corruption)", i, b)
		}
	}
}

func TestConsistencyLevel(t *testing.T) {
	fs := newFS(t, DAX)
	if fs.Consistency() != vfs.MetadataOnly {
		t.Fatal("Ext4 must advertise metadata-only consistency")
	}
}
