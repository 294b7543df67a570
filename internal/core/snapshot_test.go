package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"mgsp/internal/nvm"
	"mgsp/internal/sim"
)

func fill(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i%97)
	}
	return b
}

// TestSnapshotReadsFrozenImage: a snapshot keeps serving the pre-snapshot
// bytes while the live file moves on, across in-place toggles, CoW
// relocations, and file growth past the frozen size.
func TestSnapshotReadsFrozenImage(t *testing.T) {
	fs, ctx := newTestFS(smallTreeOpts())
	f, err := fs.Create(ctx, "f")
	if err != nil {
		t.Fatal(err)
	}
	imgA := fill(256<<10, 3)
	if _, err := f.WriteAt(ctx, imgA, 0); err != nil {
		t.Fatal(err)
	}
	// Overwrite a few blocks pre-snapshot so some leaves carry valid bits.
	copy(imgA[8192:12288], fill(4096, 77))
	if _, err := f.WriteAt(ctx, imgA[8192:12288], 8192); err != nil {
		t.Fatal(err)
	}

	id, err := fs.Snapshot(ctx, "f")
	if err != nil {
		t.Fatal(err)
	}

	// Post-snapshot mutations: full-block overwrites (CoW relocation),
	// sub-block writes (partial units), and growth beyond the frozen size.
	live := append([]byte(nil), imgA...)
	for i := 0; i < 40; i++ {
		off := int64(i) * 4096
		data := fill(4096, byte(120+i))
		copy(live[off:], data)
		if _, err := f.WriteAt(ctx, data, off); err != nil {
			t.Fatal(err)
		}
	}
	small := fill(512, 201)
	copy(live[100000:], small)
	if _, err := f.WriteAt(ctx, small, 100000); err != nil {
		t.Fatal(err)
	}
	tail := fill(64<<10, 9)
	live = append(live, tail...)
	if _, err := f.WriteAt(ctx, tail, 256<<10); err != nil {
		t.Fatal(err)
	}

	got := make([]byte, len(live))
	if _, err := f.ReadAt(ctx, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, live) {
		t.Fatal("live image diverged from reference")
	}

	sh, err := fs.OpenSnapshot(ctx, "f", id)
	if err != nil {
		t.Fatal(err)
	}
	if sh.Size() != 256<<10 {
		t.Fatalf("frozen size = %d, want %d", sh.Size(), 256<<10)
	}
	frozen := make([]byte, sh.Size()+100)
	n, err := sh.ReadAt(ctx, frozen, 0)
	if err != nil {
		t.Fatal(err)
	}
	if int64(n) != sh.Size() {
		t.Fatalf("snapshot read %d bytes, want %d", n, sh.Size())
	}
	if !bytes.Equal(frozen[:n], imgA) {
		for i := range imgA {
			if frozen[i] != imgA[i] {
				t.Fatalf("snapshot diverged at %d: got %#x want %#x", i, frozen[i], imgA[i])
			}
		}
	}
	if err := sh.Close(ctx); err != nil {
		t.Fatal(err)
	}

	if err := fs.DropSnapshot(ctx, "f", id); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadAt(ctx, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, live) {
		t.Fatal("live image changed after snapshot drop")
	}
	if rep := fs.AuditBlocks(); !rep.Clean() {
		t.Fatalf("post-drop audit: %d orphans %d unallocated", len(rep.Orphans), len(rep.Unallocated))
	}
}

// TestSnapshotLifecycleErrors covers the guard rails: unknown ids, busy
// drops, read-only handles, and destructive ops on snapped files.
func TestSnapshotLifecycleErrors(t *testing.T) {
	fs, ctx := newTestFS(smallTreeOpts())
	f, _ := fs.Create(ctx, "f")
	f.WriteAt(ctx, fill(8192, 1), 0)

	if _, err := fs.Snapshot(ctx, "nope"); err == nil {
		t.Fatal("Snapshot of missing file succeeded")
	}
	id, err := fs.Snapshot(ctx, "f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.OpenSnapshot(ctx, "f", id+999); err != ErrSnapshotNotFound {
		t.Fatalf("open unknown id: %v", err)
	}
	sh, err := fs.OpenSnapshot(ctx, "f", id)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sh.WriteAt(ctx, []byte{1}, 0); err == nil {
		t.Fatal("snapshot handle accepted a write")
	}
	if err := sh.Truncate(ctx, 0); err == nil {
		t.Fatal("snapshot handle accepted a truncate")
	}
	if err := fs.DropSnapshot(ctx, "f", id); err != ErrSnapshotBusy {
		t.Fatalf("drop with open handle: %v", err)
	}
	if err := fs.Remove(ctx, "f"); err != ErrHasSnapshots {
		t.Fatalf("remove with snapshot: %v", err)
	}
	if err := f.Truncate(ctx, 0); err != ErrHasSnapshots {
		t.Fatalf("truncate with snapshot: %v", err)
	}
	if _, err := fs.Create(ctx, "f"); err != ErrHasSnapshots {
		t.Fatalf("create-over with snapshot: %v", err)
	}
	sh.Close(ctx)
	if err := fs.DropSnapshot(ctx, "f", id); err != nil {
		t.Fatal(err)
	}
	if err := fs.DropSnapshot(ctx, "f", id); err != ErrSnapshotNotFound {
		t.Fatalf("double drop: %v", err)
	}
	if err := fs.Remove(ctx, "f"); err != nil {
		t.Fatalf("remove after drop: %v", err)
	}
}

// TestSnapshotReadTraced: every snapshot read lands in the trace ring,
// whether the file bytes serve it (the tree was written back at Close) or
// the live tree does.
func TestSnapshotReadTraced(t *testing.T) {
	fs, ctx := newTestFS(smallTreeOpts())
	f, err := fs.Create(ctx, "f")
	if err != nil {
		t.Fatal(err)
	}
	img := fill(64<<10, 5)
	if _, err := f.WriteAt(ctx, img, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(ctx); err != nil {
		t.Fatal(err)
	}
	id, err := fs.Snapshot(ctx, "f")
	if err != nil {
		t.Fatal(err)
	}
	sh, err := fs.OpenSnapshot(ctx, "f", id)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close(ctx)
	snapReads := func() (n int) {
		for _, e := range fs.TraceRing().Events() {
			if e.Op == "snap-read" {
				n++
			}
		}
		return n
	}
	buf := make([]byte, len(img))
	if _, err := sh.ReadAt(ctx, buf, 0); err != nil || !bytes.Equal(buf, img) {
		t.Fatalf("snapshot read without a tree: err=%v, content differs", err)
	}
	if got := snapReads(); got != 1 {
		t.Fatalf("after a snapshot read served by the file: %d snap-read events, want 1", got)
	}
	f, err = fs.Open(ctx, "f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close(ctx)
	if _, err := f.WriteAt(ctx, fill(4096, 77), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := sh.ReadAt(ctx, buf, 0); err != nil || !bytes.Equal(buf, img) {
		t.Fatalf("snapshot read through the tree: err=%v, content differs", err)
	}
	if got := snapReads(); got != 2 {
		t.Fatalf("after a snapshot read through the tree: %d snap-read events, want 2", got)
	}
}

// TestSnapshotCreationConstantMediaWrites: taking a snapshot costs one
// metadata-log entry regardless of file size — O(metadata), no data copy.
func TestSnapshotCreationConstantMediaWrites(t *testing.T) {
	var costs []int64
	for _, mib := range []int64{1, 8, 64} {
		dev := nvm.New(256<<20, sim.ZeroCosts())
		fs := MustNew(dev, DefaultOptions())
		ctx := sim.NewCtx(0, 1)
		f, _ := fs.Create(ctx, "f")
		data := fill(1<<20, 5)
		for off := int64(0); off < mib<<20; off += 1 << 20 {
			if _, err := f.WriteAt(ctx, data, off); err != nil {
				t.Fatal(err)
			}
		}
		before := dev.Stats().MediaWriteBytes.Load()
		curBefore := fs.stats.MetaCursorWrites.Load()
		if _, err := fs.Snapshot(ctx, "f"); err != nil {
			t.Fatal(err)
		}
		// An area-cursor persist (64 B) may ride along depending on how far
		// the home area's rotation advanced during setup — amortized log
		// bookkeeping, not part of the snapshot record. Normalize it out.
		cursors := fs.stats.MetaCursorWrites.Load() - curBefore
		cost := dev.Stats().MediaWriteBytes.Load() - before - 64*cursors
		costs = append(costs, cost)
		if cost > 256 {
			t.Fatalf("%d MiB file: snapshot wrote %d media bytes, want O(one log entry)", mib, cost)
		}
	}
	if costs[0] != costs[1] || costs[1] != costs[2] {
		t.Fatalf("snapshot cost varies with file size: %v", costs)
	}
}

// TestSnapshotFastPathUnchanged: with no live snapshot, repeated full-block
// overwrites keep the paper's 2-media-write shadow toggle — no pins, no CoW
// relocations, no extra bytes.
func TestSnapshotFastPathUnchanged(t *testing.T) {
	dev := nvm.New(128<<20, sim.ZeroCosts())
	fs := MustNew(dev, DefaultOptions())
	ctx := sim.NewCtx(0, 1)
	f, _ := fs.Create(ctx, "f")
	block := fill(4096, 8)
	f.WriteAt(ctx, block, 0) // allocate log, record, capacity

	// Take and immediately drop a snapshot: afterwards no snapshot pins the
	// block, so the fast path must be fully restored too.
	id, err := fs.Snapshot(ctx, "f")
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.DropSnapshot(ctx, "f", id); err != nil {
		t.Fatal(err)
	}

	f.WriteAt(ctx, block, 0) // settle: first post-drop write may CoW once
	pins := fs.Stats().SnapshotPins.Load()
	cows := fs.Stats().SnapshotCoWRewrites.Load()
	before := dev.Stats().MediaWriteBytes.Load()
	const reps = 10
	for i := 0; i < reps; i++ {
		if _, err := f.WriteAt(ctx, block, 0); err != nil {
			t.Fatal(err)
		}
	}
	perOp := (dev.Stats().MediaWriteBytes.Load() - before) / reps
	// 2 media writes per op: the 4 KiB data store plus one metadata entry
	// commit (+ the 16-byte two-store retire: checksum kill then length).
	if perOp > 4096+entrySize+24 {
		t.Fatalf("fast-path overwrite costs %d media bytes/op, want <= %d", perOp, 4096+entrySize+24)
	}
	if fs.Stats().SnapshotPins.Load() != pins || fs.Stats().SnapshotCoWRewrites.Load() != cows {
		t.Fatal("snapshot machinery engaged with no live snapshot")
	}
}

// TestSnapshotCoWOverwriteCost: under a live snapshot, a repeated full-block
// overwrite relocates to a fresh block but still costs ~2 media writes (the
// superseded block is freed immediately once unpinned).
func TestSnapshotCoWOverwriteCost(t *testing.T) {
	dev := nvm.New(128<<20, sim.ZeroCosts())
	fs := MustNew(dev, DefaultOptions())
	ctx := sim.NewCtx(0, 1)
	f, _ := fs.Create(ctx, "f")
	block := fill(4096, 8)
	f.WriteAt(ctx, block, 0)
	if _, err := fs.Snapshot(ctx, "f"); err != nil {
		t.Fatal(err)
	}
	f.WriteAt(ctx, block, 0) // first CoW: pin + relocation
	fs.prov.Alloc().Drain(ctx) // empty shard caches: exact-count audit below
	used := fs.prov.Alloc().UsedBlocks()
	before := dev.Stats().MediaWriteBytes.Load()
	const reps = 10
	for i := 0; i < reps; i++ {
		if _, err := f.WriteAt(ctx, block, 0); err != nil {
			t.Fatal(err)
		}
	}
	perOp := (dev.Stats().MediaWriteBytes.Load() - before) / reps
	if perOp > 4096+2*entrySize+64 {
		t.Fatalf("snapped overwrite costs %d media bytes/op, want ~2 media writes", perOp)
	}
	fs.prov.Alloc().Drain(ctx)
	if got := fs.prov.Alloc().UsedBlocks(); got != used {
		t.Fatalf("steady-state CoW overwrites leak blocks: %d -> %d", used, got)
	}
}

// TestSnapshotSurvivesRemount: snapshots, their frozen images, and their
// pins come back after a crash-free unmount/remount and after replay.
func TestSnapshotSurvivesRemount(t *testing.T) {
	opts := smallTreeOpts()
	dev := nvm.New(128<<20, sim.ZeroCosts())
	fs := MustNew(dev, opts)
	ctx := sim.NewCtx(0, 1)
	f, _ := fs.Create(ctx, "f")
	imgA := fill(128<<10, 3)
	f.WriteAt(ctx, imgA, 0)
	id, err := fs.Snapshot(ctx, "f")
	if err != nil {
		t.Fatal(err)
	}
	live := append([]byte(nil), imgA...)
	for i := 0; i < 16; i++ {
		data := fill(4096, byte(50+i))
		copy(live[i*4096:], data)
		f.WriteAt(ctx, data, int64(i)*4096)
	}

	dev.Recover()
	fs2, err := Mount(ctx, dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	infos, err := fs2.Snapshots(ctx, "f")
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].ID != id || infos[0].Size != 128<<10 {
		t.Fatalf("recovered snapshot table: %+v", infos)
	}
	f2, _ := fs2.Open(ctx, "f")
	got := make([]byte, len(live))
	f2.ReadAt(ctx, got, 0)
	if !bytes.Equal(got, live) {
		t.Fatal("live image wrong after remount")
	}
	sh, err := fs2.OpenSnapshot(ctx, "f", id)
	if err != nil {
		t.Fatal(err)
	}
	frozen := make([]byte, len(imgA))
	sh.ReadAt(ctx, frozen, 0)
	if !bytes.Equal(frozen, imgA) {
		t.Fatal("frozen image wrong after remount")
	}
	sh.Close(ctx)
	if rep := fs2.AuditBlocks(); !rep.Clean() {
		t.Fatalf("audit after remount: %d orphans %d unallocated", len(rep.Orphans), len(rep.Unallocated))
	}

	// Drop after remount: pins are collected, the image stays intact, and a
	// further remount shows an empty snapshot table.
	if err := fs2.DropSnapshot(ctx, "f", id); err != nil {
		t.Fatal(err)
	}
	f2.ReadAt(ctx, got, 0)
	if !bytes.Equal(got, live) {
		t.Fatal("live image wrong after post-remount drop")
	}
	dev.Recover()
	fs3, err := Mount(ctx, dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	if infos, _ := fs3.Snapshots(ctx, "f"); len(infos) != 0 {
		t.Fatalf("dropped snapshot resurrected: %+v", infos)
	}
	f3, _ := fs3.Open(ctx, "f")
	f3.ReadAt(ctx, got, 0)
	if !bytes.Equal(got, live) {
		t.Fatal("live image wrong after final remount")
	}
	if rep := fs3.AuditBlocks(); !rep.Clean() {
		t.Fatalf("final audit: %d orphans %d unallocated", len(rep.Orphans), len(rep.Unallocated))
	}
}

// TestSnapshotStack: multiple snapshots of the same file each freeze their
// own point in time; dropping one leaves the others intact.
func TestSnapshotStack(t *testing.T) {
	fs, ctx := newTestFS(smallTreeOpts())
	f, _ := fs.Create(ctx, "f")
	const sz = 64 << 10
	images := make([][]byte, 0, 4)
	var ids []SnapID
	cur := fill(sz, 1)
	f.WriteAt(ctx, cur, 0)
	for g := 0; g < 3; g++ {
		id, err := fs.Snapshot(ctx, "f")
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		images = append(images, append([]byte(nil), cur...))
		for i := 0; i < 6; i++ {
			off := int64((g*6+i)%(sz/4096)) * 4096
			data := fill(4096, byte(10*g+i+100))
			copy(cur[off:], data)
			if _, err := f.WriteAt(ctx, data, off); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func() {
		for k, id := range ids {
			if id == 0 {
				continue
			}
			sh, err := fs.OpenSnapshot(ctx, "f", id)
			if err != nil {
				t.Fatalf("snap %d: %v", id, err)
			}
			got := make([]byte, sz)
			sh.ReadAt(ctx, got, 0)
			sh.Close(ctx)
			if !bytes.Equal(got, images[k]) {
				t.Fatalf("snapshot %d image diverged", id)
			}
		}
		got := make([]byte, sz)
		f.ReadAt(ctx, got, 0)
		if !bytes.Equal(got, cur) {
			t.Fatal("live image diverged")
		}
	}
	check()
	// Drop the middle snapshot; the outer two must be unaffected.
	if err := fs.DropSnapshot(ctx, "f", ids[1]); err != nil {
		t.Fatal(err)
	}
	ids[1] = 0
	check()
	if err := fs.DropSnapshot(ctx, "f", ids[0]); err != nil {
		t.Fatal(err)
	}
	ids[0] = 0
	check()
	if err := fs.DropSnapshot(ctx, "f", ids[2]); err != nil {
		t.Fatal(err)
	}
	if rep := fs.AuditBlocks(); !rep.Clean() {
		t.Fatalf("audit: %d orphans %d unallocated", len(rep.Orphans), len(rep.Unallocated))
	}
}

// TestSnapshotConcurrentReadersAndWriters: snapshot readers run against
// live writers; every snapshot read must return exactly the frozen image.
func TestSnapshotConcurrentReadersAndWriters(t *testing.T) {
	fs, ctx := newTestFS(DefaultOptions())
	f, _ := fs.Create(ctx, "f")
	const sz = 256 << 10
	img := fill(sz, 3)
	f.WriteAt(ctx, img, 0)
	id, err := fs.Snapshot(ctx, "f")
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Distinct worker IDs: sticky intents and MGL holders are
			// keyed per worker, so goroutines must not share an ID.
			wctx := sim.NewCtx(1+w, int64(10+w))
			for i := 0; i < 200; i++ {
				off := int64((i*7+w*13)%(sz/4096)) * 4096
				if _, err := f.WriteAt(wctx, fill(4096, byte(i+w)), off); err != nil {
					errs <- fmt.Errorf("writer: %w", err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rctx := sim.NewCtx(3+r, int64(20+r))
			sh, err := fs.OpenSnapshot(rctx, "f", id)
			if err != nil {
				errs <- err
				return
			}
			defer sh.Close(rctx)
			buf := make([]byte, 16<<10)
			for i := 0; i < 150; i++ {
				off := int64((i*11+r*29)%((sz-len(buf))/4096)) * 4096
				n, err := sh.ReadAt(rctx, buf, off)
				if err != nil {
					errs <- fmt.Errorf("snap read: %w", err)
					return
				}
				if !bytes.Equal(buf[:n], img[off:off+int64(n)]) {
					errs <- fmt.Errorf("snap read at %d saw live data", off)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := fs.DropSnapshot(ctx, "f", id); err != nil {
		t.Fatal(err)
	}
}
