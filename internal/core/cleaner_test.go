package core

import (
	"bytes"
	"testing"

	"mgsp/internal/nvm"
	"mgsp/internal/pmfile"
	"mgsp/internal/sim"
)

// cleanerOpts enables the cleaner with an interval too large to ever
// self-fire, so tests drive passes explicitly via CleanPass/Checkpoint.
func cleanerOpts() Options {
	o := smallTreeOpts()
	o.CleanerInterval = 1 << 60
	return o
}

func TestOptionsRejectNegativeCleaner(t *testing.T) {
	dev := nvm.New(8<<20, sim.ZeroCosts())
	o := DefaultOptions()
	o.CleanerInterval = -1
	if _, err := New(dev, o); err == nil {
		t.Fatal("negative CleanerInterval accepted")
	}
	o = DefaultOptions()
	o.CleanerBudget = -5
	if _, err := New(dev, o); err == nil {
		t.Fatal("negative CleanerBudget accepted")
	}
}

// fillPerLeaf writes pat over size bytes in 4 KiB ops (leaf-granularity
// shadows, so every log is below the root and reclaimable).
func fillPerLeaf(t *testing.T, ctx *sim.Ctx, fs *FS, name string, size int64, seed byte) []byte {
	t.Helper()
	f, err := fs.Create(ctx, name)
	if err != nil {
		t.Fatal(err)
	}
	ref := make([]byte, size)
	for off := int64(0); off < size; off += 4096 {
		pat := byte(int(seed) + int(off/4096))
		chunk := bytes.Repeat([]byte{pat}, 4096)
		copy(ref[off:], chunk)
		if _, err := f.WriteAt(ctx, chunk, off); err != nil {
			t.Fatal(err)
		}
	}
	return ref
}

func readBack(t *testing.T, ctx *sim.Ctx, fs *FS, name string, size int64) []byte {
	t.Helper()
	f, err := fs.Open(ctx, name)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, size)
	if _, err := f.ReadAt(ctx, got, 0); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestCleanPassReclaimsAndPreserves: two passes (the first only establishes
// generation age) must write all cold subtrees back, drop the log footprint
// to zero, and leave the contents byte-identical; writes afterwards must
// still work.
func TestCleanPassReclaimsAndPreserves(t *testing.T) {
	fs, ctx := newTestFS(cleanerOpts())
	const size = 64 * 1024
	ref := fillPerLeaf(t, ctx, fs, "f", size, 1)
	if fs.LogBlocks() == 0 {
		t.Fatal("no shadow logs after writes; test is vacuous")
	}

	fs.CleanPass(ctx, 0) // warm-up: everything is one generation old at most
	res := fs.CleanPass(ctx, 0)
	if !res.Wrapped {
		t.Fatalf("unbounded pass did not wrap: %+v", res)
	}
	if res.SubtreesCleaned == 0 || res.BlocksReclaimed == 0 {
		t.Fatalf("second pass cleaned nothing: %+v", res)
	}
	if lb := fs.LogBlocks(); lb != 0 {
		t.Fatalf("log blocks after full clean = %d, want 0", lb)
	}
	if got := readBack(t, ctx, fs, "f", size); !bytes.Equal(got, ref) {
		t.Fatal("contents changed by cleaning")
	}
	if fs.Stats().CleanerPasses.Load() != 2 || fs.Stats().BlocksReclaimed.Load() != res.BlocksReclaimed {
		t.Fatal("cleaner stats not maintained")
	}

	// The tree must be fully writable again after reclamation.
	f, err := fs.Open(ctx, "f")
	if err != nil {
		t.Fatal(err)
	}
	post := bytes.Repeat([]byte{0xEE}, 8192)
	if _, err := f.WriteAt(ctx, post, 12288); err != nil {
		t.Fatal(err)
	}
	copy(ref[12288:], post)
	if got := readBack(t, ctx, fs, "f", size); !bytes.Equal(got, ref) {
		t.Fatal("contents wrong after post-clean write")
	}
}

// TestCleanPassBudgetResumes: a tiny budget cuts the pass short
// (Wrapped=false) before the second file and the cursor lets later passes
// finish the job.
func TestCleanPassBudgetResumes(t *testing.T) {
	fs, ctx := newTestFS(cleanerOpts())
	const size = 64 * 1024
	refA := fillPerLeaf(t, ctx, fs, "a", size, 7)
	refB := fillPerLeaf(t, ctx, fs, "b", size, 31)

	fs.CleanPass(ctx, 1) // warm-up
	res := fs.CleanPass(ctx, 1)
	if res.Wrapped {
		t.Fatalf("budget-1 pass wrapped: %+v", res)
	}
	if res.BlocksReclaimed == 0 {
		t.Fatalf("budget-1 pass reclaimed nothing: %+v", res)
	}
	for i := 0; i < 64 && fs.LogBlocks() != 0; i++ {
		fs.CleanPass(ctx, 1)
	}
	if lb := fs.LogBlocks(); lb != 0 {
		t.Fatalf("resumed passes left %d log blocks", lb)
	}
	if got := readBack(t, ctx, fs, "a", size); !bytes.Equal(got, refA) {
		t.Fatal("file a changed by budgeted cleaning")
	}
	if got := readBack(t, ctx, fs, "b", size); !bytes.Equal(got, refB) {
		t.Fatal("file b changed by budgeted cleaning")
	}
}

// TestCheckpointEpochSkipsStaleEntries (white-box): a complete metadata-log
// chain stamped with a pre-checkpoint epoch must be skipped by replay — it
// may reference records the cleaner has since retired, and replaying it here
// would visibly corrupt the file (the entry zeroes a live leaf bitmap).
func TestCheckpointEpochSkipsStaleEntries(t *testing.T) {
	opts := cleanerOpts()
	dev := nvm.New(128<<20, sim.ZeroCosts())
	fs := MustNew(dev, opts)
	ctx := sim.NewCtx(0, 1)
	const size = 64 * 1024
	ref := fillPerLeaf(t, ctx, fs, "f", size, 3)

	if !fs.Checkpoint(ctx) {
		t.Fatal("checkpoint did not quiesce an idle FS")
	}
	if fs.Stats().CheckpointsTaken.Load() != 1 {
		t.Fatal("CheckpointsTaken not counted")
	}

	// Forge a committed-but-unretired entry from before the checkpoint: epoch
	// 0, flipping a live leaf's bitmap to zero.
	f := fs.files["f"]
	leaf := findRecordedLeaf(f.root.Load())
	if leaf == nil {
		t.Fatal("no recorded leaf to reference")
	}
	i := fs.mlog.claim(ctx, 0)
	fs.mlog.commit(ctx, i, entKindOp, f.pf.Slot(), 0, 4096, f.size.Load(),
		[]opSlot{{recIdx: leaf.recIdx.Load(), old: uint16(leaf.word.Load()), new: 0}},
		0xC1EA, 0, 1, 0)

	dev.Recover()
	rctx := sim.NewCtx(1, 1)
	fs2, err := Mount(rctx, dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	if n := fs2.Stats().EntriesSkipped.Load(); n == 0 {
		t.Fatal("pre-checkpoint entry was not skipped")
	}
	if n := fs2.Stats().EntriesReplayed.Load(); n != 0 {
		t.Fatalf("replayed %d entries; expected none", n)
	}
	if got := readBack(t, rctx, fs2, "f", size); !bytes.Equal(got, ref) {
		t.Fatal("stale entry was applied: contents corrupted")
	}
}

func findRecordedLeaf(n *node) *node {
	if n == nil {
		return nil
	}
	if n.leaf {
		if n.recIdx.Load() >= 0 && n.word.Load() != 0 {
			return n
		}
		return nil
	}
	for i := range n.children {
		if r := findRecordedLeaf(n.children[i].Load()); r != nil {
			return r
		}
	}
	return nil
}

// TestCheckpointRefusesWhileInFlight: the quiesce gives up (and writes no
// record) while an operation is inside its in-flight window.
func TestCheckpointRefusesWhileInFlight(t *testing.T) {
	fs, ctx := newTestFS(cleanerOpts())
	fs.inFlight.Add(1)
	if fs.Checkpoint(ctx) {
		t.Fatal("checkpoint succeeded with an op in flight")
	}
	fs.inFlight.Add(-1)
	if fs.Stats().CheckpointsTaken.Load() != 0 {
		t.Fatal("failed checkpoint counted")
	}
	if !fs.Checkpoint(ctx) {
		t.Fatal("checkpoint failed on an idle FS")
	}
}

// TestCrashDuringCleaning sweeps fail points through a clean+checkpoint
// cycle: a crash anywhere inside the cleaner must never change the file's
// recovered contents (cleaning is logically invisible).
func TestCrashDuringCleaning(t *testing.T) {
	opts := cleanerOpts()
	const size = 48 * 1024
	for fail := int64(1); ; fail += 5 {
		dev := nvm.New(128<<20, sim.ZeroCosts())
		fs := MustNew(dev, opts)
		ctx := sim.NewCtx(0, fail)
		ref := fillPerLeaf(t, ctx, fs, "f", size, 11)

		dev.ArmCrash(fail, fail*13+5)
		fs.CleanPass(ctx, 0)
		if !dev.Crashed() {
			fs.CleanPass(ctx, 0)
		}
		if !dev.Crashed() {
			fs.Checkpoint(ctx)
		}
		dev.DisarmCrash()
		if !dev.Crashed() {
			if lb := fs.LogBlocks(); lb != 0 {
				t.Fatalf("uncrashed clean left %d log blocks", lb)
			}
			return
		}
		dev.Recover()
		rctx := sim.NewCtx(1, fail)
		fs2, err := Mount(rctx, dev, opts)
		if err != nil {
			t.Fatalf("fail=%d: %v", fail, err)
		}
		if got := readBack(t, rctx, fs2, "f", size); !bytes.Equal(got, ref) {
			t.Fatalf("fail=%d: contents changed by crashed cleaning", fail)
		}
	}
}

// TestCleanerOffByteIdentical: with the cleaner disabled (the default), the
// device image after a workload must be byte-for-byte what the seed protocol
// produces — cleaner plumbing must add no media traffic. Guarded by the
// epoch stamp using a reserved-zero byte of the metadata-log meta word and
// the directory high-water mark staying unwritten without a cleaner.
func TestCleanerOffByteIdentical(t *testing.T) {
	run := func() *nvm.Device {
		dev := nvm.New(32<<20, sim.ZeroCosts())
		fs := MustNew(dev, smallTreeOpts())
		ctx := sim.NewCtx(0, 42)
		f, err := fs.Create(ctx, "f")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			if _, err := f.WriteAt(ctx, bytes.Repeat([]byte{byte(i + 1)}, 3000), int64(i*2500)); err != nil {
				t.Fatal(err)
			}
		}
		return dev
	}
	var a, b bytes.Buffer
	if err := run().Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := run().Save(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("cleaner-off runs are not deterministic")
	}
	// The checkpoint cell region must be untouched (all zero) without a
	// cleaner.
	dev := run()
	off := pmfile.MetaStart() + int64(metaLogEntries)*entrySize
	for _, o := range []int64{ckptEpoch, ckptPasses, ckptReclaimed, ckptCksum, ckptDirHW} {
		if dev.Load8(off+o) != 0 {
			t.Fatalf("checkpoint cell word at +%d written without a cleaner", o)
		}
	}
}
