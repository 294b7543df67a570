package core

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"time"

	"mgsp/internal/nvm"
	"mgsp/internal/sim"
	"mgsp/internal/vfs"
)

// crashRun executes setup, arms the device at fail point `fail`, runs op,
// and reports whether the crash fired. On crash it recovers the device and
// returns the remounted FS. An op that issues several calls stops at the
// cut itself.
func crashRun(t *testing.T, opts Options, fail int64, setup, op func(*sim.Ctx, *FS)) (*FS, bool) {
	t.Helper()
	dev := nvm.New(128<<20, sim.ZeroCosts())
	fs := MustNew(dev, opts)
	ctx := sim.NewCtx(0, 1)
	setup(ctx, fs)

	dev.ArmCrash(fail, fail*7+3)
	op(ctx, fs)
	dev.DisarmCrash()
	if !dev.Crashed() {
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

// closeScripts build trees whose write-back at Close must be crash-safe.
// Each writes through h and mirrors every write into ref.
var closeScripts = []struct {
	name string
	run  func(ctx *sim.Ctx, h vfs.File, ref []byte)
}{
	// Fine leaf logs under valid coarse logs: clearing a leaf's record before
	// its ancestors' would fall back to their older bytes.
	{"fine-under-coarse", func(ctx *sim.Ctx, h vfs.File, ref []byte) {
		put(ctx, h, ref, 0x11, 0, 512<<10)
		put(ctx, h, ref, 0x22, 64<<10, 256<<10)
		for i := 0; i < 40; i++ {
			put(ctx, h, ref, byte(0x30+i), int64(i*37%120)*4096+100, 1500)
		}
	}},
	// A coarse write over fine logs leaves their valid bits stale below an
	// existing=0 cut, and a later fine write pushes the cut one level down
	// (lazy cleaning): clearing a cut before its descendants would expose
	// the stale bits.
	{"stale-subtree", func(ctx *sim.Ctx, h vfs.File, ref []byte) {
		put(ctx, h, ref, 0x11, 0, 512<<10)
		for i := 0; i < 16; i++ {
			put(ctx, h, ref, byte(0x40+i), 64<<10+int64(i)*4096+512, 1024)
		}
		put(ctx, h, ref, 0x55, 64<<10, 64<<10)
		put(ctx, h, ref, 0x66, 64<<10+300, 700)
	}},
}

// put writes n bytes of pat at off through h and into ref.
func put(ctx *sim.Ctx, h vfs.File, ref []byte, pat byte, off int64, n int) {
	p := bytes.Repeat([]byte{pat}, n)
	h.WriteAt(ctx, p, off)
	copy(ref[off:], p)
}

// TestCrashSweepCloseWriteback crashes the last Close of a file at every
// media op of its write-back and record release. The after-mount variant
// closes a file whose tree Mount kept after a plug-pull — the first
// write-back after recovery.
func TestCrashSweepCloseWriteback(t *testing.T) {
	opts := smallTreeOpts()
	for _, sc := range closeScripts {
		t.Run(sc.name+"/live", func(t *testing.T) {
			sweepRelease(t, opts, sc.run, false, func(ctx *sim.Ctx, fs *FS, h vfs.File) { h.Close(ctx) })
		})
		t.Run(sc.name+"/after-mount", func(t *testing.T) {
			sweepRelease(t, opts, sc.run, true, func(ctx *sim.Ctx, fs *FS, h vfs.File) { h.Close(ctx) })
		})
	}
}

// TestCrashSweepCleanerReclaim crashes two cleaner passes — which write the
// cold tree back into the file and retire its records the way Close does —
// at every media op.
func TestCrashSweepCleanerReclaim(t *testing.T) {
	opts := cleanerOpts()
	for _, sc := range closeScripts {
		t.Run(sc.name, func(t *testing.T) {
			sweepRelease(t, opts, sc.run, false, func(ctx *sim.Ctx, fs *FS, h vfs.File) {
				fs.CleanPass(ctx, 0)
				if !fs.dev.Crashed() {
					fs.CleanPass(ctx, 0)
				}
			})
		})
	}
}

// sweepRelease builds the script's tree, then runs release — an operation
// that writes the whole tree back and releases it — crashed at every media
// op in turn. Every write completed before the release, so recovery must
// return exactly their content, with every block accounted for. With
// afterMount, the tree release works on is the one Mount kept after a
// plug-pull.
func sweepRelease(t *testing.T, opts Options, script func(*sim.Ctx, vfs.File, []byte), afterMount bool,
	release func(*sim.Ctx, *FS, vfs.File)) {
	t.Helper()
	const size = 512 << 10
	for fail := int64(0); ; fail++ {
		dev := nvm.New(4<<20, sim.ZeroCosts())
		fs := MustNew(dev, opts)
		ctx := sim.NewCtx(0, 1)
		h, _ := fs.Create(ctx, "f")
		ref := make([]byte, size)
		script(ctx, h, ref)
		if afterMount {
			dev.Recover()
			var err error
			if fs, err = Mount(ctx, dev, opts); err != nil {
				t.Fatal(err)
			}
			if fs.LogBlocks() == 0 {
				t.Fatal("mount kept no logs to write back")
			}
			h, _ = fs.Open(ctx, "f")
		}
		dev.ArmCrash(fail, fail*7+3)
		release(ctx, fs, h)
		dev.DisarmCrash()
		crashed := dev.Crashed()
		if crashed {
			dev.Recover()
			var err error
			if fs, err = Mount(ctx, dev, opts); err != nil {
				t.Fatalf("fail=%d: Mount: %v", fail, err)
			}
		} else if n := fs.LogBlocks(); n != 0 {
			t.Fatalf("%d log blocks left after a complete release", n)
		}
		if rep := fs.AuditBlocks(); !rep.Clean() {
			t.Fatalf("fail=%d: audit: %d orphans, %d unallocated", fail, len(rep.Orphans), len(rep.Unallocated))
		}
		if got := readBack(t, ctx, fs, "f", size); !bytes.Equal(got, ref) {
			i := 0
			for got[i] == ref[i] {
				i++
			}
			bad := 0
			for j := range got {
				if got[j] != ref[j] {
					bad++
				}
			}
			t.Fatalf("fail=%d: %d wrong bytes after recovery, first at %d (got %#x want %#x)",
				fail, bad, i, got[i], ref[i])
		}
		if !crashed {
			if fail == 0 {
				t.Fatal("sweep never crashed")
			}
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
		for i := 0; i < len(script) && !dev.Crashed(); i++ {
			w := script[i]
			f.WriteAt(ctx, bytes.Repeat([]byte{w.pat}, w.n), w.off)
			if !dev.Crashed() {
				completed = i
			}
		}
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

// TestCrashDuringRecovery: crash Mount itself at every media op it issues,
// remounting the half-recovered image each time, until a Mount completes.
// Mount only has media ops to crash when the image holds interrupted work
// (replayed bitmap words, swept metadata-log slots), so the image comes from
// a crash inside an overwrite, at each of its media ops in turn. Whatever
// the crash inside Mount, the final content must be what an uninterrupted
// Mount of the same image recovers, and the overwrite must stay atomic.
func TestCrashDuringRecovery(t *testing.T) {
	opts := smallTreeOpts()
	const size = 50000
	old := bytes.Repeat([]byte{0xE1}, size)
	upd := bytes.Repeat([]byte{0x1E}, 8192)
	fired := 0
	for wfail := int64(0); ; wfail++ {
		dev := nvm.New(16<<20, sim.ZeroCosts())
		fs := MustNew(dev, opts)
		ctx := sim.NewCtx(0, 1)
		f, _ := fs.Create(ctx, "f")
		f.WriteAt(ctx, old, 0)
		f.WriteAt(ctx, old[:8192], 8192)
		dev.ArmCrash(wfail, wfail)
		f.WriteAt(ctx, upd, 8192)
		dev.DisarmCrash()
		if !dev.Crashed() {
			break
		}
		dev.Recover()

		// The reference: an uninterrupted Mount of a copy of the image.
		var img bytes.Buffer
		if err := dev.Save(&img); err != nil {
			t.Fatal(err)
		}
		ref, err := nvm.LoadImage(&img, func(n int64) *nvm.Device { return nvm.New(n, sim.ZeroCosts()) })
		if err != nil {
			t.Fatal(err)
		}
		rfs, err := Mount(ctx, ref, opts)
		if err != nil {
			t.Fatalf("wfail=%d: reference mount: %v", wfail, err)
		}
		want := readBack(t, ctx, rfs, "f", size)
		if !bytes.Equal(want, old) {
			patched := append([]byte{}, old...)
			copy(patched[8192:], upd)
			if !bytes.Equal(want, patched) {
				t.Fatalf("wfail=%d: reference mount recovered a torn overwrite", wfail)
			}
		}

		for mfail := int64(0); ; mfail++ {
			dev.ArmCrash(mfail, mfail)
			_, err := Mount(ctx, dev, opts)
			dev.DisarmCrash()
			if err != nil {
				t.Fatalf("wfail=%d mfail=%d: mount error: %v", wfail, mfail, err)
			}
			if !dev.Crashed() {
				break
			}
			fired++
			dev.Recover()
		}
		fs2, err := Mount(ctx, dev, opts)
		if err != nil {
			t.Fatalf("wfail=%d: final mount: %v", wfail, err)
		}
		if got := readBack(t, ctx, fs2, "f", size); !bytes.Equal(got, want) {
			t.Fatalf("wfail=%d: content after crashes during recovery differs from an uninterrupted recovery", wfail)
		}
	}
	if fired == 0 {
		t.Fatal("no fail point fired inside Mount")
	}
}

// TestRecoveryIdempotent: Mount keeps the shadow logs, so a second crash
// before any Close finds them still live. Recovering again must give
// byte-identical content, every kept log block must stay accounted for, and
// the first Close must then write them all back.
func TestRecoveryIdempotent(t *testing.T) {
	opts := smallTreeOpts()
	const size = 256 << 10
	dev := nvm.New(16<<20, sim.ZeroCosts())
	fs := MustNew(dev, opts)
	ctx := sim.NewCtx(0, 1)
	f, _ := fs.Create(ctx, "f")
	f.WriteAt(ctx, bytes.Repeat([]byte{0x10}, size), 0)
	dev.ArmCrash(400, 7)
	for i := 0; !dev.Crashed(); i++ {
		f.WriteAt(ctx, bytes.Repeat([]byte{byte(i)}, 1500+i*97%5000), int64(i*7919%(size-8192)))
	}
	dev.DisarmCrash()
	dev.Recover()

	// remount recovers the durable image, audits it, and reads the file back
	// through a handle it leaves open, so no Close writes anything back.
	remount := func(step string) (vfs.File, []byte, int64) {
		t.Helper()
		fs, err := Mount(ctx, dev, opts)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		kept := fs.LogBlocks()
		rep := fs.AuditBlocks()
		if !rep.Clean() {
			t.Fatalf("%s: audit: %d orphans, %d unallocated", step, len(rep.Orphans), len(rep.Unallocated))
		}
		if want := fs.prov.BackingPages() + kept; rep.Reachable != want {
			t.Fatalf("%s: audit reached %d blocks, want %d file + %d log", step,
				rep.Reachable, fs.prov.BackingPages(), kept)
		}
		h, err := fs.Open(ctx, "f")
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		got := make([]byte, size)
		if n, err := h.ReadAt(ctx, got, 0); n != size || err != nil {
			t.Fatalf("%s: read back %d bytes: %v", step, n, err)
		}
		return h, got, kept
	}
	_, first, kept1 := remount("first mount")
	if kept1 == 0 {
		t.Fatal("first mount kept no log blocks")
	}
	dev.Recover() // the second crash: no Close ran
	h, second, kept2 := remount("second mount")
	if !bytes.Equal(first, second) {
		t.Fatal("second mount recovered different content")
	}
	if kept1 != kept2 {
		t.Fatalf("kept %d log blocks at the first mount, %d at the second", kept1, kept2)
	}

	// The last close writes the kept logs back; a later crash finds none.
	if err := h.Close(ctx); err != nil {
		t.Fatal(err)
	}
	dev.Recover()
	_, third, kept3 := remount("mount after close")
	if !bytes.Equal(first, third) {
		t.Fatal("write-back at close changed the content")
	}
	if kept3 != 0 {
		t.Fatalf("%d log blocks survived the last close", kept3)
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
				for i := 0; i < ops && !fs.dev.Crashed(); i++ {
					pat := bytes.Repeat([]byte{byte(i + 1)}, regionSize)
					f.WriteAt(ctx, pat, int64(i%regions)*regionSize)
					if !fs.dev.Crashed() {
						completed = i + 1
					}
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
			m.commit(ctx, i, entKindOp, w, int64(i)*4096, 4096, 1<<20,
				[]opSlot{{recIdx: int64(i), old: 1, new: 2}}, group, 0, 1, 1)
		}

		// The workload stops at the cut: no step runs after the op the cut
		// landed in, and that op's bookkeeping is skipped, since it returned
		// on the cut device.
		live := func() bool { return !dev.Crashed() }
		dev.ArmCrash(fail, fail*13+5)
		// Phase 1: worker 3 claims 20 entries without retiring — the home
		// area fills at 15 and the rest spill into the next area, with a
		// cursor publish in each.
		held := make([]int, 0, 20)
		for k := 0; k < 20 && live(); k++ {
			i := m.claim(ctx, 3)
			if live() {
				doCommit(i, 3)
				held = append(held, i)
			}
		}
		for _, i := range held {
			if !live() {
				break
			}
			m.retire(ctx, i)
			if live() {
				retired[i] = true
			}
		}
		// Phase 2: claim/commit/retire cycles from several workers; worker
		// 3's claims reuse the phase-1 slots (the ABA window).
		for k := 0; k < 30 && live(); k++ {
			w := k % 5
			i := m.claim(ctx, w)
			if !live() {
				break
			}
			doCommit(i, w)
			if !live() {
				break
			}
			m.retire(ctx, i)
			if live() {
				retired[i] = true
			}
		}
		dev.DisarmCrash()
		if live() {
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

// TestCrashedReaderReleasesLocks: after the power cut a reader and a writer
// of the same block, issued on two goroutines, both return normally: the
// reader takes and releases its MGL R locks on its normal path, so the
// writer never blocks. Recovery then finds exactly the pre-cut bytes.
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
			want := bytes.Repeat([]byte{1}, off+n)
			if _, err := rh.WriteAt(rctx, want, 0); err != nil {
				t.Fatal(err)
			}
			wh, err := fs.Open(wctx, "f")
			if err != nil {
				t.Fatal(err)
			}
			copy(want[off:], bytes.Repeat([]byte{2}, n))
			for i := 0; i < metaAreaOpSlots; i++ {
				if _, err := wh.WriteAt(wctx, want[off:], off); err != nil {
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

			// Cut power from outside the file system, then read and write.
			dev.ArmCrash(0, 1)
			dev.Store8(rctx, dev.Size()-8, 0)
			if !dev.Crashed() {
				t.Fatal("armed Store8 did not cut power")
			}
			got := make([]byte, n)
			if _, err := rd.ReadAt(rctx, got, off); err != nil || !bytes.Equal(got, want[off:]) {
				t.Fatalf("reader after the cut: err=%v, bytes match=%v", err, bytes.Equal(got, want[off:]))
			}
			done := make(chan error, 1)
			go func() {
				_, err := wh.WriteAt(wctx, bytes.Repeat([]byte{3}, n), off)
				done <- err
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("writer after the cut: %v", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("writer after the cut blocked")
			}

			dev.Recover()
			fs2, err := Mount(rctx, dev, tc.opts)
			if err != nil {
				t.Fatalf("mount: %v", err)
			}
			if got := readBack(t, rctx, fs2, "f", off+n); !bytes.Equal(got, want) {
				t.Fatal("recovered file is not the pre-cut image")
			}
		})
	}
}
