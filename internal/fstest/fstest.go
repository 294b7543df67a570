// Package fstest provides a differential test battery that every simulated
// file system must pass: read-your-writes against an in-memory reference
// model under randomized operation sequences, size semantics, truncation, and
// concurrent disjoint-range writers. Per-system durability/crash semantics
// are asserted in each system's own tests and in internal/torture.
package fstest

import (
	"bytes"
	"math"
	"math/rand"
	"sync"
	"testing"

	"mgsp/internal/sim"
	"mgsp/internal/vfs"
)

// Factory creates a fresh file system instance on a fresh device.
type Factory func(t *testing.T) vfs.FS

// Run executes the battery against the file system produced by factory.
func Run(t *testing.T, factory Factory) {
	t.Run("CreateOpenRemove", func(t *testing.T) { testCreateOpenRemove(t, factory(t)) })
	t.Run("WriteReadRoundTrip", func(t *testing.T) { testWriteRead(t, factory(t)) })
	t.Run("ExtendAndHoles", func(t *testing.T) { testExtendAndHoles(t, factory(t)) })
	t.Run("Truncate", func(t *testing.T) { testTruncate(t, factory(t)) })
	t.Run("RandomDifferential", func(t *testing.T) { testRandomDifferential(t, factory(t)) })
	t.Run("SmallUnalignedWrites", func(t *testing.T) { testSmallUnaligned(t, factory(t)) })
	t.Run("ConcurrentDisjointWriters", func(t *testing.T) { testConcurrentDisjoint(t, factory(t)) })
	t.Run("ConcurrentReadersWriters", func(t *testing.T) { testConcurrentReadersWriter(t, factory(t)) })
	t.Run("CloseReopen", func(t *testing.T) { testCloseReopen(t, factory(t)) })
	t.Run("OverflowingWriteRejected", func(t *testing.T) { testOverflowingWrite(t, factory(t)) })
}

func testCreateOpenRemove(t *testing.T, fs vfs.FS) {
	ctx := sim.NewCtx(0, 1)
	if _, err := fs.Open(ctx, "missing"); err != vfs.ErrNotExist {
		t.Fatalf("Open(missing) err = %v, want ErrNotExist", err)
	}
	f, err := fs.Create(ctx, "a")
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := f.WriteAt(ctx, []byte("x"), 0); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	if err := f.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	f2, err := fs.Open(ctx, "a")
	if err != nil {
		t.Fatalf("Open after close: %v", err)
	}
	if f2.Size() != 1 {
		t.Fatalf("size = %d, want 1", f2.Size())
	}
	if err := f2.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove(ctx, "a"); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if _, err := fs.Open(ctx, "a"); err != vfs.ErrNotExist {
		t.Fatalf("Open(removed) err = %v, want ErrNotExist", err)
	}
	if err := fs.Remove(ctx, "a"); err != vfs.ErrNotExist {
		t.Fatalf("Remove(missing) err = %v, want ErrNotExist", err)
	}
}

func testWriteRead(t *testing.T, fs vfs.FS) {
	ctx := sim.NewCtx(0, 1)
	f := mustCreate(t, fs, ctx, "f")
	defer f.Close(ctx)

	data := seqBytes(10000)
	if n, err := f.WriteAt(ctx, data, 0); err != nil || n != len(data) {
		t.Fatalf("WriteAt = %d, %v", n, err)
	}
	if err := f.Fsync(ctx); err != nil {
		t.Fatalf("Fsync: %v", err)
	}
	buf := make([]byte, len(data))
	if n, err := f.ReadAt(ctx, buf, 0); err != nil || n != len(data) {
		t.Fatalf("ReadAt = %d, %v", n, err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("read data differs from written data")
	}
	// Interior overwrite.
	patch := bytes.Repeat([]byte{0xEE}, 777)
	f.WriteAt(ctx, patch, 1234)
	copy(data[1234:], patch)
	f.ReadAt(ctx, buf, 0)
	if !bytes.Equal(buf, data) {
		t.Fatal("interior overwrite not visible")
	}
}

func testExtendAndHoles(t *testing.T, fs vfs.FS) {
	ctx := sim.NewCtx(0, 1)
	f := mustCreate(t, fs, ctx, "f")
	defer f.Close(ctx)

	// Write far beyond EOF: the hole must read back as zeros.
	if _, err := f.WriteAt(ctx, []byte("tail"), 100000); err != nil {
		t.Fatalf("WriteAt beyond EOF: %v", err)
	}
	if f.Size() != 100004 {
		t.Fatalf("size = %d, want 100004", f.Size())
	}
	buf := make([]byte, 4096)
	if n, err := f.ReadAt(ctx, buf, 50000); err != nil || n != 4096 {
		t.Fatalf("ReadAt hole = %d, %v", n, err)
	}
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("hole byte %d = %#x, want 0", i, b)
		}
	}
	// Read straddling EOF is short.
	if n, _ := f.ReadAt(ctx, buf, 100000); n != 4 {
		t.Fatalf("read at EOF = %d bytes, want 4", n)
	}
	// Read past EOF reads nothing.
	if n, _ := f.ReadAt(ctx, buf, 200000); n != 0 {
		t.Fatalf("read past EOF = %d bytes, want 0", n)
	}
}

func testTruncate(t *testing.T, fs vfs.FS) {
	ctx := sim.NewCtx(0, 1)
	f := mustCreate(t, fs, ctx, "f")
	defer f.Close(ctx)

	f.WriteAt(ctx, seqBytes(8192), 0)
	if err := f.Truncate(ctx, 1000); err != nil {
		t.Fatalf("Truncate down: %v", err)
	}
	if f.Size() != 1000 {
		t.Fatalf("size = %d, want 1000", f.Size())
	}
	if err := f.Truncate(ctx, 5000); err != nil {
		t.Fatalf("Truncate up: %v", err)
	}
	buf := make([]byte, 5000)
	if n, err := f.ReadAt(ctx, buf, 0); err != nil || n != 5000 {
		t.Fatalf("ReadAt = %d, %v", n, err)
	}
	want := make([]byte, 5000)
	copy(want, seqBytes(1000))
	if !bytes.Equal(buf, want) {
		t.Fatal("truncate up did not zero the extension")
	}
}

// testRandomDifferential runs a long randomized op sequence against an
// in-memory reference and checks full-file equality periodically.
func testRandomDifferential(t *testing.T, fs vfs.FS) {
	ctx := sim.NewCtx(0, 99)
	f := mustCreate(t, fs, ctx, "f")
	defer f.Close(ctx)

	const maxSize = 1 << 20
	ref := make([]byte, 0, maxSize)
	rng := rand.New(rand.NewSource(12345))

	for op := 0; op < 400; op++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4, 5: // write
			off := int64(rng.Intn(maxSize / 2))
			n := rng.Intn(64*1024) + 1
			data := make([]byte, n)
			rng.Read(data)
			if _, err := f.WriteAt(ctx, data, off); err != nil {
				t.Fatalf("op %d WriteAt(%d,%d): %v", op, off, n, err)
			}
			if need := off + int64(n); need > int64(len(ref)) {
				ref = append(ref, make([]byte, need-int64(len(ref)))...)
			}
			copy(ref[off:], data)
		case 6, 7, 8: // read
			if len(ref) == 0 {
				continue
			}
			off := int64(rng.Intn(len(ref)))
			n := rng.Intn(32*1024) + 1
			buf := make([]byte, n)
			got, err := f.ReadAt(ctx, buf, off)
			if err != nil {
				t.Fatalf("op %d ReadAt(%d,%d): %v", op, off, n, err)
			}
			want := len(ref) - int(off)
			if want > n {
				want = n
			}
			if got != want {
				t.Fatalf("op %d ReadAt length = %d, want %d", op, got, want)
			}
			if !bytes.Equal(buf[:got], ref[off:off+int64(got)]) {
				t.Fatalf("op %d ReadAt(%d,%d) content mismatch", op, off, n)
			}
		case 9: // fsync
			if err := f.Fsync(ctx); err != nil {
				t.Fatalf("op %d Fsync: %v", op, err)
			}
		}
		if op%100 == 99 {
			checkWholeFile(t, ctx, f, ref, op)
		}
	}
	checkWholeFile(t, ctx, f, ref, -1)
}

func testSmallUnaligned(t *testing.T, fs vfs.FS) {
	ctx := sim.NewCtx(0, 7)
	f := mustCreate(t, fs, ctx, "f")
	defer f.Close(ctx)

	ref := make([]byte, 20000)
	// Many tiny unaligned writes crossing block and cache-line boundaries.
	for i := 0; i < 300; i++ {
		off := int64((i * 67) % 19000)
		n := i%93 + 1
		data := bytes.Repeat([]byte{byte(i + 1)}, n)
		f.WriteAt(ctx, data, off)
		copy(ref[off:], data)
		if i%37 == 0 {
			f.Fsync(ctx)
		}
	}
	buf := make([]byte, len(ref))
	n, err := f.ReadAt(ctx, buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[:n], ref[:n]) {
		t.Fatal("unaligned write content mismatch")
	}
}

func testConcurrentDisjoint(t *testing.T, fs vfs.FS) {
	setup := sim.NewCtx(100, 1)
	f := mustCreate(t, fs, setup, "f")
	const workers = 4
	const region = 256 * 1024
	// Preallocate so concurrent writers do not race on extension.
	f.WriteAt(setup, make([]byte, workers*region), 0)
	f.Fsync(setup)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			ctx := sim.NewCtx(id, int64(id))
			base := int64(id) * region
			for i := 0; i < 50; i++ {
				off := base + int64(ctx.Rand.Intn(region-4096))
				data := bytes.Repeat([]byte{byte(id + 1)}, 1+ctx.Rand.Intn(4096))
				if _, err := f.WriteAt(ctx, data, off); err != nil {
					t.Errorf("worker %d: %v", id, err)
					return
				}
				if i%10 == 0 {
					if err := f.Fsync(ctx); err != nil {
						t.Errorf("worker %d fsync: %v", id, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	// Every byte in worker w's region is either 0 or w+1.
	buf := make([]byte, workers*region)
	f.ReadAt(setup, buf, 0)
	for w := 0; w < workers; w++ {
		for i := 0; i < region; i++ {
			b := buf[w*region+i]
			if b != 0 && b != byte(w+1) {
				t.Fatalf("worker %d region byte %d = %d (cross-region corruption)", w, i, b)
			}
		}
	}
	f.Close(setup)
}

func testConcurrentReadersWriter(t *testing.T, fs vfs.FS) {
	setup := sim.NewCtx(100, 1)
	f := mustCreate(t, fs, setup, "f")
	defer f.Close(setup)
	const n = 64 * 1024
	f.WriteAt(setup, bytes.Repeat([]byte{0xAA}, n), 0)
	f.Fsync(setup)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// One writer flips 4K chunks between two valid fill patterns.
	wg.Add(1)
	go func() {
		defer wg.Done()
		ctx := sim.NewCtx(0, 3)
		for i := 0; i < 100; i++ {
			pat := byte(0xAA)
			if i%2 == 1 {
				pat = 0xBB
			}
			off := int64(ctx.Rand.Intn(n/4096)) * 4096
			f.WriteAt(ctx, bytes.Repeat([]byte{pat}, 4096), off)
		}
		close(stop)
	}()
	// Readers check that each aligned 4K chunk is uniformly one pattern
	// (write atomicity at the granularity our writer uses).
	for r := 1; r <= 2; r++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			ctx := sim.NewCtx(id, int64(id))
			buf := make([]byte, 4096)
			for {
				select {
				case <-stop:
					return
				default:
				}
				off := int64(ctx.Rand.Intn(n/4096)) * 4096
				f.ReadAt(ctx, buf, off)
				first := buf[0]
				if first != 0xAA && first != 0xBB {
					t.Errorf("unexpected byte %#x", first)
					return
				}
			}
		}(r)
	}
	wg.Wait()
}

func testCloseReopen(t *testing.T, fs vfs.FS) {
	ctx := sim.NewCtx(0, 1)
	f := mustCreate(t, fs, ctx, "f")
	data := seqBytes(33333)
	f.WriteAt(ctx, data, 0)
	f.Fsync(ctx)
	if err := f.Close(ctx); err != nil {
		t.Fatal(err)
	}
	// Operations on a closed handle fail.
	if _, err := f.WriteAt(ctx, []byte("x"), 0); err != vfs.ErrClosed {
		t.Fatalf("WriteAt on closed = %v, want ErrClosed", err)
	}
	f2, err := fs.Open(ctx, "f")
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close(ctx)
	buf := make([]byte, len(data))
	if n, err := f2.ReadAt(ctx, buf, 0); err != nil || n != len(data) {
		t.Fatalf("ReadAt after reopen = %d, %v", n, err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("data lost across close/reopen")
	}
}

// testOverflowingWrite: a write whose end lies past math.MaxInt64 fails
// cleanly — an error, no panic, and the file's size and content unchanged.
func testOverflowingWrite(t *testing.T, fs vfs.FS) {
	ctx := sim.NewCtx(0, 1)
	f := mustCreate(t, fs, ctx, "f")
	defer f.Close(ctx)
	ref := seqBytes(4096)
	if _, err := f.WriteAt(ctx, ref, 0); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	for _, off := range []int64{math.MaxInt64 - 10, math.MaxInt64} {
		if n, err := f.WriteAt(ctx, make([]byte, 100), off); err == nil {
			t.Fatalf("WriteAt(100 B at %d) = %d, nil; want an error", off, n)
		}
	}
	checkWholeFile(t, ctx, f, ref, -1)
}

func checkWholeFile(t *testing.T, ctx *sim.Ctx, f vfs.File, ref []byte, op int) {
	t.Helper()
	if f.Size() != int64(len(ref)) {
		t.Fatalf("after op %d: size = %d, want %d", op, f.Size(), len(ref))
	}
	if len(ref) == 0 {
		return
	}
	buf := make([]byte, len(ref))
	n, err := f.ReadAt(ctx, buf, 0)
	if err != nil || n != len(ref) {
		t.Fatalf("after op %d: whole-file read = %d, %v", op, n, err)
	}
	if !bytes.Equal(buf, ref) {
		for i := range ref {
			if buf[i] != ref[i] {
				t.Fatalf("after op %d: first mismatch at byte %d: got %#x want %#x", op, i, buf[i], ref[i])
			}
		}
	}
}

func mustCreate(t *testing.T, fs vfs.FS, ctx *sim.Ctx, name string) vfs.File {
	t.Helper()
	f, err := fs.Create(ctx, name)
	if err != nil {
		t.Fatalf("Create(%s): %v", name, err)
	}
	return f
}

func seqBytes(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + i/251)
	}
	return b
}
