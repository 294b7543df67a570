package pmfile

import (
	"bytes"
	"sync"
	"testing"

	"mgsp/internal/nvm"
	"mgsp/internal/sim"
	"mgsp/internal/vfs"
)

func newProvider(size int64) (*Provider, *sim.Ctx) {
	return New(nvm.New(size, sim.ZeroCosts()), 1<<20), sim.NewCtx(0, 1)
}

func TestCreateOpenRemove(t *testing.T) {
	p, ctx := newProvider(32 << 20)
	f, err := p.Create(ctx, "a")
	if err != nil {
		t.Fatal(err)
	}
	if f.Slot() < 0 || f.Name() != "a" {
		t.Fatalf("bad file identity: slot=%d name=%q", f.Slot(), f.Name())
	}
	if _, err := p.Open(ctx, "b"); err != vfs.ErrNotExist {
		t.Fatalf("Open(missing) = %v", err)
	}
	g, err := p.Open(ctx, "a")
	if err != nil || g != f {
		t.Fatalf("Open = %v, %v", g, err)
	}
	if err := p.Remove(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Open(ctx, "a"); err != vfs.ErrNotExist {
		t.Fatalf("Open(removed) = %v", err)
	}
}

func TestDirectWriteReadRoundTrip(t *testing.T) {
	p, ctx := newProvider(32 << 20)
	f, _ := p.Create(ctx, "f")
	if err := f.EnsureCapacity(ctx, 3<<20); err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{7, 13, 99}, 100000)
	f.DirectWrite(ctx, data, 12345)
	buf := make([]byte, len(data))
	f.DirectRead(ctx, buf, 12345)
	if !bytes.Equal(buf, data) {
		t.Fatal("round trip mismatch")
	}
}

func TestUnwrittenPagesReadZero(t *testing.T) {
	p, ctx := newProvider(32 << 20)
	f, _ := p.Create(ctx, "f")
	f.EnsureCapacity(ctx, 1<<20)
	// Dirty the device region first by creating/removing another file.
	g, _ := p.Create(ctx, "g")
	g.EnsureCapacity(ctx, 1<<20)
	g.DirectWrite(ctx, bytes.Repeat([]byte{0xFF}, 1<<20), 0)
	buf := make([]byte, 8192)
	f.DirectRead(ctx, buf, 4096)
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("unwritten byte %d = %#x, want 0", i, b)
		}
	}
}

func TestGeometricExtentGrowth(t *testing.T) {
	p, ctx := newProvider(512 << 20)
	f, _ := p.Create(ctx, "f")
	if err := f.EnsureCapacity(ctx, 200<<20); err != nil {
		t.Fatal(err)
	}
	if n := len(f.extentList()); n > 10 {
		t.Fatalf("200 MiB took %d extents, want few (geometric growth)", n)
	}
	if f.Capacity() < 200<<20 {
		t.Fatalf("capacity = %d", f.Capacity())
	}
}

func TestSetSizePersists(t *testing.T) {
	p, ctx := newProvider(32 << 20)
	f, _ := p.Create(ctx, "f")
	f.EnsureCapacity(ctx, 1<<20)
	f.DirectWrite(ctx, []byte("hello"), 0)
	f.Fence(ctx) // data durable before the size word publishes it
	f.SetSize(ctx, 5)

	p.Device().Recover()
	p2, err := Recover(ctx, p.Device(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := p2.Open(ctx, "f")
	if err != nil {
		t.Fatal(err)
	}
	if f2.Size() != 5 {
		t.Fatalf("recovered size = %d, want 5", f2.Size())
	}
	buf := make([]byte, 5)
	f2.DirectRead(ctx, buf, 0)
	if string(buf) != "hello" {
		t.Fatalf("recovered data %q", buf)
	}
}

func TestRecoverRebuildsAllocator(t *testing.T) {
	p, ctx := newProvider(64 << 20)
	f, _ := p.Create(ctx, "f")
	f.EnsureCapacity(ctx, 4<<20)
	logBlock, err := p.Alloc().Alloc(ctx)
	if err != nil {
		t.Fatal(err)
	}

	p.Device().Recover()
	p2, err := Recover(ctx, p.Device(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	f2, _ := p2.Open(ctx, "f")
	// The file's extents must be registered...
	exts := f2.extentList()
	if len(exts) == 0 || !p2.Alloc().Allocated(exts[0].phys) {
		t.Fatal("file extents not re-registered with allocator")
	}
	// ...and the anonymous log block must be claimable by the library.
	if err := p2.Alloc().MarkAllocated(logBlock, 1); err != nil {
		t.Fatalf("log block not reclaimable: %v", err)
	}
}

func TestFirstTouchFaultsChargedOnce(t *testing.T) {
	dev := nvm.New(32<<20, sim.DefaultCosts())
	p := New(dev, 1<<20)
	ctx := sim.NewCtx(0, 1)
	f, _ := p.Create(ctx, "f")
	f.EnsureCapacity(ctx, 1<<20)

	t0 := ctx.Now()
	f.DirectWrite(ctx, make([]byte, 4096), 0)
	cold := ctx.Now() - t0
	t0 = ctx.Now()
	f.DirectWrite(ctx, make([]byte, 4096), 0)
	warm := ctx.Now() - t0
	if cold < warm+dev.Costs().PageFault {
		t.Fatalf("first touch (%dns) must include a page fault over warm access (%dns)", cold, warm)
	}
}

func TestDataPlaneHasNoSyscallCost(t *testing.T) {
	dev := nvm.New(32<<20, sim.DefaultCosts())
	p := New(dev, 1<<20)
	ctx := sim.NewCtx(0, 1)
	f, _ := p.Create(ctx, "f")
	f.EnsureCapacity(ctx, 1<<20)
	f.DirectWrite(ctx, make([]byte, 4096), 0) // warm the page

	costs := dev.Costs()
	t0 := ctx.Now()
	f.DirectWrite(ctx, make([]byte, 4096), 0)
	elapsed := ctx.Now() - t0
	// A warm 4K direct write is pure media cost — far below one syscall
	// round trip plus media.
	if elapsed >= costs.WriteCost(4096)+costs.Syscall {
		t.Fatalf("direct write cost %dns includes kernel-path overhead", elapsed)
	}
}

func TestConcurrentDirectAccess(t *testing.T) {
	p, _ := newProvider(64 << 20)
	setup := sim.NewCtx(99, 1)
	f, _ := p.Create(setup, "f")
	f.EnsureCapacity(setup, 8<<20)

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			ctx := sim.NewCtx(id, int64(id))
			base := int64(id) * (2 << 20)
			data := bytes.Repeat([]byte{byte(id + 1)}, 4096)
			buf := make([]byte, 4096)
			for i := 0; i < 100; i++ {
				off := base + int64(ctx.Rand.Intn(2<<20-4096))
				f.DirectWrite(ctx, data, off)
				f.DirectRead(ctx, buf, off)
				if buf[0] != byte(id+1) {
					t.Errorf("worker %d read back %d", id, buf[0])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestConcurrentGrowthWithReaders(t *testing.T) {
	p, _ := newProvider(256 << 20)
	setup := sim.NewCtx(99, 1)
	f, _ := p.Create(setup, "f")
	f.EnsureCapacity(setup, 1<<20)
	f.DirectWrite(setup, bytes.Repeat([]byte{0x11}, 1<<20), 0)

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		ctx := sim.NewCtx(1, 1)
		for n := int64(2 << 20); n <= 128<<20; n *= 2 {
			f.EnsureCapacity(ctx, n)
		}
	}()
	go func() {
		defer wg.Done()
		ctx := sim.NewCtx(2, 2)
		buf := make([]byte, 4096)
		for i := 0; i < 500; i++ {
			f.DirectRead(ctx, buf, int64(i%250)*4096)
			if buf[0] != 0x11 {
				t.Errorf("read %#x during growth", buf[0])
				return
			}
		}
	}()
	wg.Wait()
}

func TestCreateTruncatesExisting(t *testing.T) {
	p, ctx := newProvider(32 << 20)
	f, _ := p.Create(ctx, "f")
	f.EnsureCapacity(ctx, 1<<20)
	f.DirectWrite(ctx, []byte("old"), 0)
	f.Fence(ctx) // data durable before the size word publishes it
	f.SetSize(ctx, 3)

	f2, err := p.Create(ctx, "f")
	if err != nil {
		t.Fatal(err)
	}
	if f2.Size() != 0 {
		t.Fatalf("re-created size = %d, want 0", f2.Size())
	}
	buf := make([]byte, 3)
	f2.DirectRead(ctx, buf, 0)
	if !bytes.Equal(buf, []byte{0, 0, 0}) {
		t.Fatalf("re-created content = %q, want zeros", buf)
	}
}
