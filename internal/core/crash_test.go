package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"mgsp/internal/nvm"
	"mgsp/internal/sim"
)

// crashRun executes setup, arms the device at fail point `fail`, runs op,
// and reports whether the crash fired. On crash it recovers the device and
// returns the remounted FS.
func crashRun(t *testing.T, opts Options, fail int64, setup, op func(*sim.Ctx, *FS)) (*FS, bool) {
	t.Helper()
	dev := nvm.New(128<<20, sim.ZeroCosts())
	fs := MustNew(dev, opts)
	ctx := sim.NewCtx(0, 1)
	setup(ctx, fs)

	dev.ArmCrash(fail, fail*7+3)
	crashed := false
	func() {
		defer func() {
			if r := recover(); r != nil {
				if r != nvm.ErrCrashed {
					panic(r)
				}
				crashed = true
			}
		}()
		op(ctx, fs)
	}()
	dev.DisarmCrash()
	if !crashed {
		return fs, false
	}
	dev.Recover()
	fs2, err := Mount(ctx, dev, opts)
	if err != nil {
		t.Fatalf("fail=%d: Mount after crash: %v", fail, err)
	}
	return fs2, true
}

// TestCrashSweepSingleWriteAtomicity sweeps every media-op fail point
// through one 4 KiB overwrite and asserts all-or-nothing.
func TestCrashSweepSingleWriteAtomicity(t *testing.T) {
	opts := smallTreeOpts()
	oldData := bytes.Repeat([]byte{0xAA}, 16384)
	newData := bytes.Repeat([]byte{0xBB}, 4096)

	for fail := int64(0); ; fail++ {
		fs, crashed := crashRun(t, opts, fail,
			func(ctx *sim.Ctx, fs *FS) {
				f, _ := fs.Create(ctx, "f")
				f.WriteAt(ctx, oldData, 0)
			},
			func(ctx *sim.Ctx, fs *FS) {
				f, _ := fs.Open(ctx, "f")
				f.WriteAt(ctx, newData, 4096)
			})
		ctx := sim.NewCtx(9, 9)
		f, err := fs.Open(ctx, "f")
		if err != nil {
			t.Fatalf("fail=%d: %v", fail, err)
		}
		got := make([]byte, 16384)
		n, _ := f.ReadAt(ctx, got, 0)
		if n != 16384 {
			t.Fatalf("fail=%d: short read %d", fail, n)
		}
		want := append([]byte{}, oldData...)
		if bytes.Equal(got[4096:8192], newData) {
			copy(want[4096:], newData)
		}
		if !bytes.Equal(got, want) {
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("fail=%d crashed=%v: torn write visible at byte %d (got %#x)", fail, crashed, i, got[i])
				}
			}
		}
		if !crashed {
			if fail == 0 {
				t.Fatal("sweep never crashed")
			}
			return
		}
	}
}

// TestCrashSweepFineWrite does the same for a sub-block (700 B, unaligned)
// write, which exercises the sub-unit toggle and RMW paths.
func TestCrashSweepFineWrite(t *testing.T) {
	opts := smallTreeOpts()
	oldData := bytes.Repeat([]byte{0x11}, 8192)
	newData := bytes.Repeat([]byte{0x22}, 700)

	for fail := int64(0); ; fail++ {
		fs, crashed := crashRun(t, opts, fail,
			func(ctx *sim.Ctx, fs *FS) {
				f, _ := fs.Create(ctx, "f")
				f.WriteAt(ctx, oldData, 0)
				f.WriteAt(ctx, bytes.Repeat([]byte{0x33}, 100), 3000) // seed fine-grained state
			},
			func(ctx *sim.Ctx, fs *FS) {
				f, _ := fs.Open(ctx, "f")
				f.WriteAt(ctx, newData, 2900)
			})
		ctx := sim.NewCtx(9, 9)
		f, _ := fs.Open(ctx, "f")
		got := make([]byte, 8192)
		f.ReadAt(ctx, got, 0)

		want := append([]byte{}, oldData...)
		copy(want[3000:], bytes.Repeat([]byte{0x33}, 100))
		if bytes.Equal(got[2900:3600], newData) {
			copy(want[2900:], newData)
		}
		if !bytes.Equal(got, want) {
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("fail=%d crashed=%v: byte %d got %#x want %#x", fail, crashed, i, got[i], want[i])
				}
			}
		}
		if !crashed {
			return
		}
	}
}

// TestCrashSweepCoarseWrite exercises the interior-node toggle: a 64 KiB
// aligned write at degree 4 (span 16K and 64K nodes exist).
func TestCrashSweepCoarseWrite(t *testing.T) {
	opts := smallTreeOpts()
	oldData := bytes.Repeat([]byte{0x44}, 256*1024)
	newData := bytes.Repeat([]byte{0x55}, 64*1024)

	for fail := int64(0); ; fail++ {
		fs, crashed := crashRun(t, opts, fail,
			func(ctx *sim.Ctx, fs *FS) {
				f, _ := fs.Create(ctx, "f")
				f.WriteAt(ctx, oldData, 0)
				f.WriteAt(ctx, oldData[:64*1024], 64*1024) // toggle some state
			},
			func(ctx *sim.Ctx, fs *FS) {
				f, _ := fs.Open(ctx, "f")
				f.WriteAt(ctx, newData, 64*1024)
			})
		ctx := sim.NewCtx(9, 9)
		f, _ := fs.Open(ctx, "f")
		got := make([]byte, 256*1024)
		f.ReadAt(ctx, got, 0)
		want := append([]byte{}, oldData...)
		if bytes.Equal(got[64*1024:128*1024], newData) {
			copy(want[64*1024:], newData)
		}
		if !bytes.Equal(got, want) {
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("fail=%d crashed=%v: byte %d got %#x want %#x", fail, crashed, i, got[i], want[i])
				}
			}
		}
		if !crashed {
			return
		}
	}
}

// TestCrashRandomizedWorkload runs a scripted random workload, crashes at a
// random media-op index, and checks the recovered file matches the
// reference at some op boundary >= the last completed op (operation-level
// atomicity: each write is all-or-nothing and ordered).
func TestCrashRandomizedWorkload(t *testing.T) {
	opts := smallTreeOpts()
	const fileSize = 128 * 1024
	const opsTotal = 60

	for trial := 0; trial < 25; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) * 131))
		// Pre-generate the op sequence so we can replay references.
		type wr struct {
			off int64
			n   int
			pat byte
		}
		var script []wr
		for i := 0; i < opsTotal; i++ {
			script = append(script, wr{
				off: int64(rng.Intn(fileSize - 70000)),
				n:   rng.Intn(65536) + 1,
				pat: byte(i + 1),
			})
		}
		fail := int64(rng.Intn(800) + 1)

		dev := nvm.New(128<<20, sim.ZeroCosts())
		fs := MustNew(dev, opts)
		ctx := sim.NewCtx(0, 1)
		f, _ := fs.Create(ctx, "f")
		f.WriteAt(ctx, make([]byte, fileSize), 0) // dense base

		completed := -1
		dev.ArmCrash(fail, int64(trial))
		func() {
			defer func() {
				if r := recover(); r != nil && r != nvm.ErrCrashed {
					panic(r)
				}
			}()
			for i, w := range script {
				f.WriteAt(ctx, bytes.Repeat([]byte{w.pat}, w.n), w.off)
				completed = i
			}
		}()
		dev.DisarmCrash()
		dev.Recover()
		fs2, err := Mount(ctx, dev, opts)
		if err != nil {
			t.Fatalf("trial %d: Mount: %v", trial, err)
		}
		ctx2 := sim.NewCtx(1, 2)
		f2, err := fs2.Open(ctx2, "f")
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got := make([]byte, fileSize)
		f2.ReadAt(ctx2, got, 0)

		// Build the two acceptable states: all ops through `completed`, or
		// additionally the (committed-before-crash) op completed+1.
		ref := make([]byte, fileSize)
		for i := 0; i <= completed; i++ {
			w := script[i]
			for j := 0; j < w.n; j++ {
				ref[w.off+int64(j)] = w.pat
			}
		}
		if bytes.Equal(got, ref) {
			continue
		}
		if completed+1 < len(script) {
			w := script[completed+1]
			for j := 0; j < w.n; j++ {
				ref[w.off+int64(j)] = w.pat
			}
			if bytes.Equal(got, ref) {
				continue
			}
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("trial %d (fail=%d, completed=%d): recovered state is not an op boundary; first diff at %d: got %#x want %#x",
					trial, fail, completed, i, got[i], ref[i])
			}
		}
	}
}

// TestRecoveryIdempotent: mounting twice yields the same content.
func TestRecoveryIdempotent(t *testing.T) {
	opts := smallTreeOpts()
	dev := nvm.New(128<<20, sim.ZeroCosts())
	fs := MustNew(dev, opts)
	ctx := sim.NewCtx(0, 1)
	f, _ := fs.Create(ctx, "f")
	f.WriteAt(ctx, bytes.Repeat([]byte{9}, 100000), 0)
	dev.ArmCrash(40, 99)
	func() {
		defer func() { recover() }()
		for i := 0; i < 100; i++ {
			f.WriteAt(ctx, bytes.Repeat([]byte{byte(i)}, 3000), int64(i*900))
		}
	}()
	dev.Recover()
	fs2, err := Mount(ctx, dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	f2, _ := fs2.Open(ctx, "f")
	a := make([]byte, 100000)
	f2.ReadAt(ctx, a, 0)

	dev.DropVolatile()
	fs3, err := Mount(ctx, dev, opts)
	if err != nil {
		t.Fatalf("second mount: %v", err)
	}
	f3, _ := fs3.Open(ctx, "f")
	b := make([]byte, 100000)
	f3.ReadAt(ctx, b, 0)
	if !bytes.Equal(a, b) {
		t.Fatal("recovery is not idempotent")
	}
}

// TestCrashDuringRecoveryWriteback: crash during Mount's write-back, then
// mount again — content must still be correct (write-back is idempotent).
func TestCrashDuringRecovery(t *testing.T) {
	opts := smallTreeOpts()
	dev := nvm.New(128<<20, sim.ZeroCosts())
	fs := MustNew(dev, opts)
	ctx := sim.NewCtx(0, 1)
	f, _ := fs.Create(ctx, "f")
	want := bytes.Repeat([]byte{0xE1}, 50000)
	f.WriteAt(ctx, want, 0)
	f.WriteAt(ctx, want[:8192], 8192)

	dev.DropVolatile()
	for fail := int64(1); fail < 200; fail += 13 {
		dev.ArmCrash(fail, fail)
		func() {
			defer func() {
				if r := recover(); r != nil && r != nvm.ErrCrashed {
					panic(r)
				}
			}()
			if _, err := Mount(ctx, dev, opts); err != nil {
				panic(fmt.Sprintf("mount error: %v", err))
			}
		}()
		dev.DisarmCrash()
		dev.Recover()
	}
	fs4, err := Mount(ctx, dev, opts)
	if err != nil {
		t.Fatalf("final mount: %v", err)
	}
	f4, _ := fs4.Open(ctx, "f")
	got := make([]byte, 50000)
	f4.ReadAt(ctx, got, 0)
	if !bytes.Equal(got, want) {
		t.Fatal("content corrupted by crash during recovery")
	}
}

// TestCrashSweepChainedCommit: a write whose decomposition needs more than
// ten bitmap slots commits through a metadata-log entry chain; the chain
// must be all-or-nothing at every fail point (incomplete chains are
// discarded at recovery).
func TestCrashSweepChainedCommit(t *testing.T) {
	opts := DefaultOptions() // degree 64: a 128K+1K-offset write spans 30+ leaves
	oldData := bytes.Repeat([]byte{0x51}, 256*1024)
	newData := bytes.Repeat([]byte{0x62}, 128*1024)

	for fail := int64(0); ; fail += 3 {
		fs, crashed := crashRun(t, opts, fail,
			func(ctx *sim.Ctx, fs *FS) {
				f, _ := fs.Create(ctx, "f")
				f.WriteAt(ctx, oldData, 0)
			},
			func(ctx *sim.Ctx, fs *FS) {
				f, _ := fs.Open(ctx, "f")
				f.WriteAt(ctx, newData, 1024) // unaligned: many leaf targets
			})
		ctx := sim.NewCtx(9, 9)
		f, _ := fs.Open(ctx, "f")
		got := make([]byte, 256*1024)
		f.ReadAt(ctx, got, 0)
		want := append([]byte{}, oldData...)
		if bytes.Equal(got[1024:1024+128*1024], newData) {
			copy(want[1024:], newData)
		}
		if !bytes.Equal(got, want) {
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("fail=%d crashed=%v: chained commit torn at byte %d (got %#x)", fail, crashed, i, got[i])
				}
			}
		}
		if !crashed {
			if fail == 0 {
				t.Fatal("sweep never crashed")
			}
			return
		}
	}
}

// TestCrashSweepSlotReuseResurrection regresses the retired-entry
// resurrection hazard in the metadata log's slot-reuse protocol. One worker
// issues enough single-entry writes to wrap its 15-slot home-area rotation
// several times, so later commits land in slots holding retired corpses of
// earlier ops with identical length fields. A torn re-commit then persists
// only a short prefix of the new entry — and with a retire that zeroed only
// the length word, a prefix stopping before the checksum field would revive
// the corpse bit-identically for recovery to replay over state that later
// completed ops had already moved past. The sweep hits every media-op index,
// so some fail points land exactly on those reused-slot commits with every
// possible tear prefix; the oracle requires each region to hold the pattern
// of its last completed write (or the one in-flight write), uniformly.
func TestCrashSweepSlotReuseResurrection(t *testing.T) {
	opts := smallTreeOpts()
	const (
		regions    = 4
		regionSize = 4096
		ops        = 24 // wraps the 15-op home rotation: commits 16..24 reuse retired slots
	)

	for fail := int64(0); ; fail++ {
		completed := 0
		fs, crashed := crashRun(t, opts, fail,
			func(ctx *sim.Ctx, fs *FS) {
				f, _ := fs.Create(ctx, "f")
				f.WriteAt(ctx, make([]byte, regions*regionSize), 0)
			},
			func(ctx *sim.Ctx, fs *FS) {
				f, _ := fs.Open(ctx, "f")
				for i := 0; i < ops; i++ {
					pat := bytes.Repeat([]byte{byte(i + 1)}, regionSize)
					f.WriteAt(ctx, pat, int64(i%regions)*regionSize)
					completed = i + 1
				}
			})
		ctx := sim.NewCtx(9, 9)
		f, err := fs.Open(ctx, "f")
		if err != nil {
			t.Fatalf("fail=%d: %v", fail, err)
		}
		got := make([]byte, regions*regionSize)
		if n, _ := f.ReadAt(ctx, got, 0); n != len(got) {
			t.Fatalf("fail=%d: short read %d", fail, n)
		}
		for r := 0; r < regions; r++ {
			// The last completed write on region r, if any, and the one write
			// that may have been in flight at the crash.
			last := byte(0)
			for i := completed - 1; i >= 0; i-- {
				if i%regions == r {
					last = byte(i + 1)
					break
				}
			}
			inflight := byte(0)
			if completed < ops && completed%regions == r {
				inflight = byte(completed + 1)
			}
			region := got[r*regionSize : (r+1)*regionSize]
			pat := region[0]
			if pat != last && (inflight == 0 || pat != inflight) {
				t.Fatalf("fail=%d completed=%d: region %d regressed to pattern %#x (want %#x or in-flight %#x) — retired entry resurrected",
					fail, completed, r, pat, last, inflight)
			}
			for j, b := range region {
				if b != pat {
					t.Fatalf("fail=%d completed=%d: region %d torn at byte %d (%#x vs %#x)",
						fail, completed, r, j, b, pat)
				}
			}
		}
		if !crashed {
			if fail == 0 {
				t.Fatal("sweep never crashed")
			}
			if completed != ops {
				t.Fatalf("uncrashed run completed %d/%d ops", completed, ops)
			}
			return
		}
	}
}

// TestCrashSweepCursorPublish sweeps fail points through raw metadata-log
// traffic — claims that publish area cursors, spill into a neighbor area,
// commit, and retire — and checks the two stitching invariants recovery's
// bounded per-area scan relies on, at every crash point:
//
//   - ordering: a valid op entry never sits in a slot above its area's
//     valid durable cursor (claims persist the cursor before returning);
//   - no resurrection: a slot decodes to at most the entry most recently
//     committed there; once its retire has returned, it decodes as dead.
//
// The spill phase holds >15 claims from one worker so the cursor publish
// path runs in a neighboring area too (crash between the two areas' slot
// publishes is one of the swept points).
func TestCrashSweepCursorPublish(t *testing.T) {
	const entries = metaAreas * metaAreaSlots

	for fail := int64(1); ; fail++ {
		dev := nvm.New(1<<20, sim.ZeroCosts())
		ctx := sim.NewCtx(0, 1)
		m := newMetaLog(dev, 0, entries)

		// attempt[i] is the group id of the entry most recently committed (or
		// being committed) in slot i; retired[i] is set once retire returns.
		attempt := make(map[int]uint32)
		retired := make(map[int]bool)
		group := uint32(0)
		doCommit := func(i, w int) {
			group++
			attempt[i] = group
			delete(retired, i)
			m.commit(ctx, i, w, int64(i)*4096, 4096, 1<<20,
				[]bitmapSlot{{recIdx: int64(i), old: 1, new: 2}}, group, 0, 1, 1)
		}

		crashed := false
		func() {
			defer func() {
				if r := recover(); r != nil {
					if r != nvm.ErrCrashed {
						panic(r)
					}
					crashed = true
				}
			}()
			dev.ArmCrash(fail, fail*13+5)
			// Phase 1: worker 3 claims 20 entries without retiring — the home
			// area fills at 15 and the rest spill into the next area, with a
			// cursor publish in each.
			held := make([]int, 0, 20)
			for k := 0; k < 20; k++ {
				i := m.claim(ctx, 3)
				doCommit(i, 3)
				held = append(held, i)
			}
			for _, i := range held {
				m.retire(ctx, i)
				retired[i] = true
			}
			// Phase 2: claim/commit/retire cycles from several workers; worker
			// 3's claims reuse the phase-1 slots (the ABA window).
			for k := 0; k < 30; k++ {
				w := k % 5
				i := m.claim(ctx, w)
				doCommit(i, w)
				m.retire(ctx, i)
				retired[i] = true
			}
		}()
		dev.DisarmCrash()
		if !crashed {
			if fail == 1 {
				t.Fatal("sweep never crashed")
			}
			return
		}
		dev.Recover()

		m2 := newMetaLog(dev, 0, entries)
		for i := 0; i < entries; i++ {
			if i%metaAreaSlots == 0 {
				continue // cursor slots
			}
			var buf [entrySize]byte
			for j := 0; j < entrySize; j += 8 {
				binary.LittleEndian.PutUint64(buf[j:], dev.Load8(m2.off(i)+int64(j)))
			}
			e, ok := decodeEntry(buf[:])
			if !ok {
				continue
			}
			if e.kind == entKindCursor {
				t.Fatalf("fail=%d: cursor entry decoded in op slot %d", fail, i)
			}
			if retired[i] {
				t.Fatalf("fail=%d: slot %d decodes valid (group %d) after its retire returned — resurrected corpse",
					fail, i, e.group)
			}
			if g, ok := attempt[i]; !ok || e.group != g {
				t.Fatalf("fail=%d: slot %d decodes group %d, last commit attempt there was group %d — stale incarnation revived",
					fail, i, e.group, g)
			}
			a, s := i/metaAreaSlots, i%metaAreaSlots
			if hw, ok := m2.readCursor(a); ok && s > hw {
				t.Fatalf("fail=%d: valid entry in area %d slot %d above durable cursor %d — bounded scan would miss it",
					fail, a, s, hw)
			}
		}
	}
}

// TestCrashedReaderReleasesLocks: a reader that dies on the crashed-device
// panic of a media read must not keep its MGL R locks. A writer to the same
// block on another goroutine must then reach the dead device and panic with
// nvm.ErrCrashed, instead of blocking forever on the leaked lock.
func TestCrashedReaderReleasesLocks(t *testing.T) {
	cached := DefaultOptions()
	cached.CacheFrames = 8 // turns the lock-free read path off: misses take R locks
	for _, tc := range []struct {
		name string
		opts Options
		snap bool // read through a snapshot handle (always R-locked)
	}{
		{"live", cached, false},
		{"snapshot", DefaultOptions(), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dev := nvm.New(64<<20, sim.ZeroCosts())
			fs := MustNew(dev, tc.opts)
			rctx, wctx := sim.NewCtx(0, 1), sim.NewCtx(1, 2)
			// Sub-block writes: the cache only installs fully written blocks,
			// so the reader's probe misses and takes the locked path.
			const off, n = 2 * LeafSpan, 512
			rh, err := fs.Create(rctx, "f")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := rh.WriteAt(rctx, bytes.Repeat([]byte{1}, off+n), 0); err != nil {
				t.Fatal(err)
			}
			wh, err := fs.Open(wctx, "f")
			if err != nil {
				t.Fatal(err)
			}
			// Rotate the writer through its metadata-log home area, so its next
			// claim needs no cursor persist: the first media op it meets after
			// the crash then lies behind the node lock the reader held.
			for i := 0; i < metaAreaOpSlots; i++ {
				if _, err := wh.WriteAt(wctx, bytes.Repeat([]byte{2}, n), off); err != nil {
					t.Fatal(err)
				}
			}
			rd := rh
			if tc.snap {
				id, err := fs.Snapshot(rctx, "f")
				if err != nil {
					t.Fatal(err)
				}
				if rd, err = fs.OpenSnapshot(rctx, "f", id); err != nil {
					t.Fatal(err)
				}
			}

			// Crash the device from outside the file system (reads are not
			// fail points; once crashed, every media op panics), then read:
			// the reader dies in its media read with its R locks taken.
			dev.ArmCrash(0, 1)
			if r := panicOf(func() { dev.Store8(rctx, dev.Size()-8, 0) }); r != nvm.ErrCrashed {
				t.Fatalf("crash: panic %v, want nvm.ErrCrashed", r)
			}
			if r := panicOf(func() { rd.ReadAt(rctx, make([]byte, n), off) }); r != nvm.ErrCrashed {
				t.Fatalf("reader: panic %v, want nvm.ErrCrashed", r)
			}
			done := make(chan any, 1)
			go func() { done <- panicOf(func() { wh.WriteAt(wctx, bytes.Repeat([]byte{3}, n), off) }) }()
			select {
			case r := <-done:
				if r != nvm.ErrCrashed {
					t.Fatalf("writer: panic %v, want nvm.ErrCrashed", r)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("writer blocked: the crashed reader leaked its read locks")
			}
		})
	}
}

// panicOf runs fn and returns the value it panicked with (nil if none).
func panicOf(fn func()) (r any) {
	defer func() { r = recover() }()
	fn()
	return nil
}
