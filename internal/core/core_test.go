package core

import (
	"bytes"
	"testing"

	"mgsp/internal/fstest"
	"mgsp/internal/nvm"
	"mgsp/internal/sim"
	"mgsp/internal/vfs"
)

func newTestFS(opts Options) (*FS, *sim.Ctx) {
	return MustNew(nvm.New(128<<20, sim.ZeroCosts()), opts), sim.NewCtx(0, 1)
}

func smallTreeOpts() Options {
	o := DefaultOptions()
	o.Degree = 4 // deeper trees exercise more machinery on small files
	return o
}

func TestBatteryDefault(t *testing.T) {
	fstest.Run(t, func(t *testing.T) vfs.FS {
		return MustNew(nvm.New(128<<20, sim.ZeroCosts()), DefaultOptions())
	})
}

func TestBatteryDegree4(t *testing.T) {
	fstest.Run(t, func(t *testing.T) vfs.FS {
		return MustNew(nvm.New(128<<20, sim.ZeroCosts()), smallTreeOpts())
	})
}

func TestBatteryCacheWriteThrough(t *testing.T) {
	o := DefaultOptions()
	o.CacheFrames = 64
	fstest.Run(t, func(t *testing.T) vfs.FS {
		return MustNew(nvm.New(128<<20, sim.ZeroCosts()), o)
	})
}

func TestBatteryFixedGranularity(t *testing.T) {
	o := DefaultOptions()
	o.MultiGranularity = false
	fstest.Run(t, func(t *testing.T) vfs.FS {
		return MustNew(nvm.New(128<<20, sim.ZeroCosts()), o)
	})
}

func TestBatteryFileLock(t *testing.T) {
	o := DefaultOptions()
	o.Locking = LockFile
	o.GreedyLocking = false
	o.LazyIntentionCleaning = false
	fstest.Run(t, func(t *testing.T) vfs.FS {
		return MustNew(nvm.New(128<<20, sim.ZeroCosts()), o)
	})
}

func TestBatteryNoOptimizations(t *testing.T) {
	o := DefaultOptions()
	o.GreedyLocking = false
	o.LazyIntentionCleaning = false
	o.MinSearchTree = false
	fstest.Run(t, func(t *testing.T) vfs.FS {
		return MustNew(nvm.New(128<<20, sim.ZeroCosts()), o)
	})
}

func TestOptionsValidate(t *testing.T) {
	bad := []Options{
		{Degree: 1, SubBits: 8, MultiGranularity: true},
		{Degree: 64, SubBits: 3},
		{Degree: 64, SubBits: 32},
		{Degree: 2000, SubBits: 8},
	}
	for i, o := range bad {
		if _, err := New(nvm.New(4<<20, sim.ZeroCosts()), o); err == nil {
			t.Errorf("case %d: invalid options accepted", i)
		}
	}
}

// TestShadowLogZeroCopy is the core claim of Figure 3: N repeated writes to
// the same block cost N block writes (plus metadata), not 2N.
func TestShadowLogZeroCopy(t *testing.T) {
	fs, ctx := newTestFS(DefaultOptions())
	f, _ := fs.Create(ctx, "f")
	f.WriteAt(ctx, make([]byte, 4096), 0)
	dev := fs.Device()
	dev.ResetStats()

	const ops = 100
	for i := 0; i < ops; i++ {
		f.WriteAt(ctx, make([]byte, 4096), 0)
	}
	media := dev.Stats().MediaWriteBytes.Load()
	wa := float64(media) / float64(ops*4096)
	if wa > 1.1 {
		t.Fatalf("repeated-overwrite WA = %.3f, want ~1 (shadow log must not double-write)", wa)
	}
	if wa < 1.0 {
		t.Fatalf("WA = %.3f < 1: impossible, accounting bug", wa)
	}
}

// TestShadowToggleAlternates: consecutive writes to one block alternate
// between the leaf log and the fallback, and reads always see the newest.
func TestShadowToggleAlternates(t *testing.T) {
	fs, ctx := newTestFS(smallTreeOpts())
	f, _ := fs.Create(ctx, "f")
	buf := make([]byte, 4096)
	for i := 0; i < 7; i++ {
		pat := bytes.Repeat([]byte{byte(i + 1)}, 4096)
		f.WriteAt(ctx, pat, 8192)
		f.ReadAt(ctx, buf, 8192)
		if !bytes.Equal(buf, pat) {
			t.Fatalf("iteration %d: read does not see newest data", i)
		}
	}
}

// TestFineGrainedWriteAmplification: sub-block writes log only the sub-unit
// (512 B with default SubBits=8), unlike fixed-granularity mode.
func TestFineGrainedWriteAmplification(t *testing.T) {
	run := func(opts Options) float64 {
		fs, ctx := newTestFS(opts)
		f, _ := fs.Create(ctx, "f")
		f.WriteAt(ctx, make([]byte, 64*1024), 0)
		dev := fs.Device()
		dev.ResetStats()
		const ops = 64
		for i := 0; i < ops; i++ {
			f.WriteAt(ctx, make([]byte, 512), int64(i)*1024)
		}
		return float64(dev.Stats().MediaWriteBytes.Load()) / float64(ops*512)
	}
	multi := run(DefaultOptions())
	fixed := func() Options { o := DefaultOptions(); o.MultiGranularity = false; return o }()
	fixedWA := run(fixed)
	if multi > 1.5 {
		t.Fatalf("multi-granularity 512B WA = %.2f, want near 1", multi)
	}
	if fixedWA < 6 {
		t.Fatalf("fixed-granularity 512B WA = %.2f, want ~8 (full 4K per 512B)", fixedWA)
	}
}

// TestCoarseGrainedSingleMetadataUpdate: a 256 KiB aligned write (one
// interior node at degree 64) commits with a single bitmap slot.
func TestCoarseGrainedSingleMetadataUpdate(t *testing.T) {
	fs, ctx := newTestFS(DefaultOptions())
	f, _ := fs.Create(ctx, "f")
	f.WriteAt(ctx, make([]byte, 1<<20), 0)
	dev := fs.Device()
	dev.ResetStats()
	f.WriteAt(ctx, make([]byte, 256*1024), 0)
	media := dev.Stats().MediaWriteBytes.Load()
	// 256K data + metadata entry (64B partial flush) + word + small extras.
	if media > 256*1024+4096 {
		t.Fatalf("256K write cost %d media bytes: coarse granularity not used", media)
	}
}

// TestEveryWriteDurableWithoutFsync: MGSP operations are synchronized.
func TestEveryWriteDurableWithoutFsync(t *testing.T) {
	dev := nvm.New(128<<20, sim.ZeroCosts())
	fs := MustNew(dev, smallTreeOpts())
	ctx := sim.NewCtx(0, 1)
	f, _ := fs.Create(ctx, "f")
	data := bytes.Repeat([]byte{0x3C}, 10000)
	f.WriteAt(ctx, data, 777)

	dev.DropVolatile()
	fs2, err := Mount(ctx, dev, smallTreeOpts())
	if err != nil {
		t.Fatalf("Mount: %v", err)
	}
	f2, err := fs2.Open(ctx, "f")
	if err != nil {
		t.Fatal(err)
	}
	if f2.Size() != 10777 {
		t.Fatalf("recovered size = %d, want 10777", f2.Size())
	}
	got := make([]byte, 10000)
	f2.ReadAt(ctx, got, 777)
	if !bytes.Equal(got, data) {
		t.Fatal("write lost across crash without fsync")
	}
}

// TestCloseWritesBackAndReleases: after close, data is in the file proper
// and all log space is reclaimed.
func TestCloseWritesBackAndReleases(t *testing.T) {
	dev := nvm.New(128<<20, sim.ZeroCosts())
	fs := MustNew(dev, smallTreeOpts())
	ctx := sim.NewCtx(0, 1)
	f, _ := fs.Create(ctx, "f")
	data := bytes.Repeat([]byte{0x5B}, 50000)
	f.WriteAt(ctx, data, 0)
	f.WriteAt(ctx, bytes.Repeat([]byte{0x6C}, 1000), 100) // fine overwrite
	copy(data[100:], bytes.Repeat([]byte{0x6C}, 1000))
	used := fs.prov.Alloc().UsedBlocks()
	if err := f.Close(ctx); err != nil {
		t.Fatal(err)
	}
	after := fs.prov.Alloc().UsedBlocks()
	if after >= used {
		t.Fatalf("close reclaimed nothing: %d -> %d blocks", used, after)
	}
	// Reopen and verify content comes straight from the file.
	f2, err := fs.Open(ctx, "f")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	f2.ReadAt(ctx, got, 0)
	if !bytes.Equal(got, data) {
		t.Fatal("content wrong after close/reopen write-back")
	}
}

// TestMetadataLogClaims: concurrent workers each get distinct entries.
func TestMetadataLogClaims(t *testing.T) {
	fs, _ := newTestFS(DefaultOptions())
	ctx := sim.NewCtx(0, 1)
	seen := make(map[int]bool)
	var idxs []int
	for w := 0; w < 64; w++ {
		i := fs.mlog.claim(ctx, w)
		if seen[i] {
			t.Fatalf("entry %d claimed twice", i)
		}
		seen[i] = true
		idxs = append(idxs, i)
	}
	for _, i := range idxs {
		fs.mlog.retire(ctx, i)
	}
	// All released: claiming again succeeds.
	i := fs.mlog.claim(ctx, 0)
	fs.mlog.retire(ctx, i)
}

// TestMetadataEntryRoundTrip exercises encode/decode incl. partial flush.
func TestMetadataEntryRoundTrip(t *testing.T) {
	dev := nvm.New(1<<20, sim.ZeroCosts())
	ml := newMetaLog(dev, 0, 32)
	ctx := sim.NewCtx(0, 1)

	slots := []bitmapSlot{{recIdx: 7, old: 0x3, new: 0xC}, {recIdx: 9, old: 0, new: 1}}
	ml.commit(ctx, 3, 5, 1234, 999, 55555, slots, 42, 0, 1, 0)
	e, ok := decodeEntry(dev.Inspect(ml.off(3), entrySize))
	if !ok {
		t.Fatal("committed entry does not decode")
	}
	if e.fileSlot != 5 || e.offset != 1234 || e.length != 999 || e.fileSize != 55555 ||
		e.group != 42 || e.chainLen != 1 || len(e.slots) != 2 {
		t.Fatalf("decoded entry mismatch: %+v", e)
	}
	if e.slots[0] != (bitmapSlot{7, 0x3, 0xC}) {
		t.Fatalf("slot mismatch: %+v", e.slots[0])
	}
	ml.retire(ctx, 3)
	if _, ok := decodeEntry(dev.Inspect(ml.off(3), entrySize)); ok {
		t.Fatal("retired entry still decodes as live")
	}
}

func TestMetadataEntryPartialFlushIs64Bytes(t *testing.T) {
	dev := nvm.New(1<<20, sim.ZeroCosts())
	ml := newMetaLog(dev, 0, 32)
	ctx := sim.NewCtx(0, 1)
	dev.ResetStats()
	ml.commit(ctx, 0, 1, 0, 100, 100, []bitmapSlot{{1, 0, 1}}, 1, 0, 1, 0)
	if w := dev.Stats().MediaWriteBytes.Load(); w != 64 {
		t.Fatalf("1-slot entry flushed %d bytes, want 64 (partial flush)", w)
	}
	dev.ResetStats()
	slots := make([]bitmapSlot, 5)
	for i := range slots {
		slots[i] = bitmapSlot{recIdx: int64(i), new: 1}
	}
	ml.commit(ctx, 1, 1, 0, 100, 100, slots, 2, 0, 1, 0)
	if w := dev.Stats().MediaWriteBytes.Load(); w != entrySize {
		t.Fatalf("5-slot entry flushed %d bytes, want %d", w, entrySize)
	}
}

// TestTornEntryRejected: a torn metadata entry fails its checksum.
func TestTornEntryRejected(t *testing.T) {
	dev := nvm.New(1<<20, sim.ZeroCosts())
	ml := newMetaLog(dev, 0, 32)
	ctx := sim.NewCtx(0, 1)
	ml.commit(ctx, 0, 1, 0, 100, 100, []bitmapSlot{{1, 0, 1}}, 1, 0, 1, 0)
	// Corrupt one byte inside the flushed area.
	dev.Write(ctx, []byte{0xFF}, ml.off(0)+20)
	dev.Flush(ctx, ml.off(0)+20, 1)
	if _, ok := decodeEntry(dev.Inspect(ml.off(0), entrySize)); ok {
		t.Fatal("corrupted entry passed its checksum")
	}
}

// TestLargeUnalignedWriteChainsEntries: >10 bitmap slots commit atomically
// via a chained entry group.
func TestLargeUnalignedWriteChains(t *testing.T) {
	fs, ctx := newTestFS(DefaultOptions())
	f, _ := fs.Create(ctx, "f")
	// 128 KiB at a 1 KiB offset: 32+ leaf targets at degree 64.
	data := bytes.Repeat([]byte{0xD7}, 128*1024)
	if _, err := f.WriteAt(ctx, data, 1024); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	f.ReadAt(ctx, got, 1024)
	if !bytes.Equal(got, data) {
		t.Fatal("chained-commit write round trip failed")
	}
}

// TestMinSearchTreeCacheHit: sequential ops reuse the cached subtree.
func TestMinSearchTreeCache(t *testing.T) {
	fs, ctx := newTestFS(DefaultOptions())
	f, _ := fs.Create(ctx, "f")
	f.WriteAt(ctx, make([]byte, 1<<20), 0)
	ff := fs.files["f"]
	f.WriteAt(ctx, make([]byte, 4096), 4096)
	m := ff.minSearch.Load()
	if m == nil {
		t.Fatal("min search tree not cached")
	}
	if m.span >= ff.root.Load().span {
		t.Fatal("min search tree did not shrink below the root")
	}
	if !covers(m, 4096, 8192) {
		t.Fatal("cached subtree does not cover the last op")
	}
}

func TestConsistencyLevel(t *testing.T) {
	fs, _ := newTestFS(DefaultOptions())
	if fs.Consistency() != vfs.OpAtomic {
		t.Fatal("MGSP must advertise op-level atomicity")
	}
}

// TestSizeRestoredFromMetadataEntry: the entry's fileSize field recovers an
// extension even when the crash hits before the size store.
func TestSizeInMetadataEntry(t *testing.T) {
	fs, ctx := newTestFS(DefaultOptions())
	f, _ := fs.Create(ctx, "f")
	f.WriteAt(ctx, make([]byte, 100), 0)
	if f.Size() != 100 {
		t.Fatalf("size = %d", f.Size())
	}
}

// TestRemoveReclaimsEverything.
func TestRemoveReclaims(t *testing.T) {
	fs, ctx := newTestFS(smallTreeOpts())
	f, _ := fs.Create(ctx, "f")
	f.WriteAt(ctx, make([]byte, 1<<20), 0)
	f.WriteAt(ctx, make([]byte, 512), 5) // force fine-grained logs
	f.Close(ctx)
	if err := fs.Remove(ctx, "f"); err != nil {
		t.Fatal(err)
	}
	fs.prov.Alloc().Drain(ctx) // flush shard caches: exact-count audit below
	if used := fs.prov.Alloc().UsedBlocks(); used != 0 {
		t.Fatalf("%d blocks leaked after remove", used)
	}
}
