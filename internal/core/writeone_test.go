package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"mgsp/internal/nvm"
	"mgsp/internal/sim"
	"mgsp/internal/vfs"
)

// twinWriter drives one file system of a twin pair: write applies one
// update either through WriteAt or through a one-update WriteMulti.
type twinWriter struct {
	dev   *nvm.Device
	fs    *FS
	ctx   *sim.Ctx
	h     vfs.File
	write func(p []byte, off int64) error
}

func newTwinWriter(t *testing.T, opts Options, multi bool) *twinWriter {
	t.Helper()
	w := &twinWriter{dev: nvm.New(64<<20, sim.DefaultCosts()), ctx: sim.NewCtx(0, 1)}
	w.fs = MustNew(w.dev, opts)
	h, err := w.fs.Create(w.ctx, "f")
	if err != nil {
		t.Fatal(err)
	}
	w.h = h
	w.write = func(p []byte, off int64) error {
		_, err := h.WriteAt(w.ctx, p, off)
		return err
	}
	if multi {
		w.write = func(p []byte, off int64) error {
			return h.(*handle).WriteMulti(w.ctx, []Update{{Off: off, Data: p}})
		}
	}
	return w
}

// TestWriteAtWriteMultiTwin runs one seeded stream of random writes on two
// file systems, WriteAt on one and one-update WriteMulti on the other, and
// requires identical device images and identical virtual clocks: WriteAt is
// the one-range case of the one write commit, not a second path.
func TestWriteAtWriteMultiTwin(t *testing.T) {
	const (
		fileSize = 4 << 20
		ops      = 2000
	)
	for _, degree := range []int{64, 4} {
		t.Run(fmt.Sprintf("degree%d", degree), func(t *testing.T) {
			opts := DefaultOptions()
			opts.Degree = degree
			a := newTwinWriter(t, opts, false)
			b := newTwinWriter(t, opts, true)
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < ops; i++ {
				if i == ops/2 {
					// A live snapshot from here on: the rest of the stream
					// runs the copy-on-write planner.
					for _, w := range []*twinWriter{a, b} {
						if _, err := w.fs.Snapshot(w.ctx, "f"); err != nil {
							t.Fatal(err)
						}
					}
				}
				n := rng.Intn(16384) + 1
				off := rng.Int63n(fileSize - int64(n))
				p := bytes.Repeat([]byte{byte(i + 1)}, n)
				if err := a.write(p, off); err != nil {
					t.Fatalf("op %d WriteAt: %v", i, err)
				}
				if err := b.write(p, off); err != nil {
					t.Fatalf("op %d WriteMulti: %v", i, err)
				}
				if a.ctx.Now() != b.ctx.Now() {
					t.Fatalf("op %d (%d B at %d): clocks part: WriteAt %d ns, WriteMulti %d ns",
						i, n, off, a.ctx.Now(), b.ctx.Now())
				}
			}
			if a.fs.Stats().SnapshotCoWRewrites.Load() == 0 {
				t.Fatal("the stream never ran the copy-on-write planner")
			}
			if !bytes.Equal(a.dev.Inspect(0, int(a.dev.Size())), b.dev.Inspect(0, int(b.dev.Size()))) {
				t.Fatal("device images differ")
			}
		})
	}
}

// TestWriteAllocs guards the per-op garbage of the write commit: steady-state
// overwrites of a 1 MiB file under DefaultOptions. WriteAt stays at or below
// the 26 allocations per 4 KiB write and 14 per 1 KiB write it cost while it
// had its own commit code; a one-update WriteMulti may add at most one.
func TestWriteAllocs(t *testing.T) {
	for _, c := range []struct {
		size int
		max  float64
	}{{4096, 26}, {1024, 14}} {
		dev := nvm.New(64<<20, sim.DefaultCosts())
		fs := MustNew(dev, DefaultOptions())
		ctx := sim.NewCtx(0, 1)
		h, err := fs.Create(ctx, "f")
		if err != nil {
			t.Fatal(err)
		}
		const fileSize = 1 << 20
		if _, err := h.WriteAt(ctx, make([]byte, fileSize), 0); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, c.size)
		off := int64(0)
		next := func() int64 {
			off = (off + int64(c.size)) % fileSize
			return off
		}
		// Warm every leaf through both paths before measuring.
		for i := 0; i < 2*fileSize/c.size; i++ {
			h.WriteAt(ctx, buf, next())
		}
		wa := testing.AllocsPerRun(500, func() {
			if _, err := h.WriteAt(ctx, buf, next()); err != nil {
				t.Fatal(err)
			}
		})
		hh := h.(*handle)
		wm := testing.AllocsPerRun(500, func() {
			if err := hh.WriteMulti(ctx, []Update{{Off: next(), Data: buf}}); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d B: WriteAt %.1f allocs, one-update WriteMulti %.1f allocs", c.size, wa, wm)
		if wa > c.max {
			t.Errorf("%d B WriteAt: %.1f allocs per op, want <= %.0f", c.size, wa, c.max)
		}
		if wm > wa+1 {
			t.Errorf("%d B one-update WriteMulti: %.1f allocs per op, want <= WriteAt's %.1f + 1", c.size, wm, wa)
		}
	}
}
