package core

import (
	"bytes"
	"testing"

	"mgsp/internal/nvm"
	"mgsp/internal/sim"
	"mgsp/internal/vfs"
)

func cacheOpts(frames int) Options {
	o := DefaultOptions()
	o.CacheFrames = frames
	return o
}

// fill returns a page of repeated b with a distinguishing first byte.
func page(b byte) []byte {
	buf := make([]byte, LeafSpan)
	for i := range buf {
		buf[i] = b
	}
	return buf
}

func TestCacheOptionValidation(t *testing.T) {
	dev := nvm.New(64<<20, sim.ZeroCosts())
	bad := DefaultOptions()
	bad.CacheFrames = -1
	if _, err := New(dev, bad); err == nil {
		t.Fatal("negative CacheFrames must be rejected")
	}
}

// TestCacheReadHitContent checks the basic hit path: a read that fills a
// frame, a second read served from it, and content equality throughout —
// including after a committed overwrite (frame coherence via patchFrames).
func TestCacheReadHitContent(t *testing.T) {
	fs, ctx := newTestFS(cacheOpts(64))
	h, err := fs.Create(ctx, "f")
	if err != nil {
		t.Fatal(err)
	}
	want := page(0x11)
	if _, err := h.WriteAt(ctx, want, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, LeafSpan)
	for i := 0; i < 3; i++ {
		if _, err := h.ReadAt(ctx, got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("read %d: wrong content", i)
		}
	}
	if fs.Cache().Stats().Hits == 0 {
		t.Fatal("repeated reads must hit the cache")
	}
	// Committed overwrite → the cached frame must follow.
	want2 := page(0x22)
	if _, err := h.WriteAt(ctx, want2[:100], 50); err != nil {
		t.Fatal(err)
	}
	copy(want[50:150], want2[:100])
	if _, err := h.ReadAt(ctx, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("cached frame stale after committed overwrite")
	}
}

// TestCacheReadStepUp is the acceptance-criteria latency claim in unit-test
// form: with real costs, a cached re-read of a block is measurably cheaper
// in virtual time than the first (media) read.
func TestCacheReadStepUp(t *testing.T) {
	read := func(opts Options) int64 {
		fs := MustNew(nvm.New(64<<20, sim.DefaultCosts()), opts)
		ctx := sim.NewCtx(0, 1)
		h, err := fs.Create(ctx, "f")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.WriteAt(ctx, page(1), 0); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, LeafSpan)
		t0 := ctx.Now()
		for i := 0; i < 10; i++ {
			if _, err := h.ReadAt(ctx, buf, 0); err != nil {
				t.Fatal(err)
			}
		}
		return ctx.Now() - t0
	}
	cached := read(cacheOpts(64))
	uncached := read(DefaultOptions())
	if cached >= uncached {
		t.Fatalf("cached reads (%d ns) not cheaper than uncached (%d ns)", cached, uncached)
	}
}

// TestCacheInvalidation: after remove, create-over, and truncate no read may
// be served a stale frame — especially across pm-slot reuse (Remove frees
// the slot even while the cache holds frames of the removed file).
func TestCacheInvalidation(t *testing.T) {
	fs, ctx := newTestFS(cacheOpts(64))
	h, err := fs.Create(ctx, "a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.WriteAt(ctx, page(0xAA), 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, LeafSpan)
	if _, err := h.ReadAt(ctx, got, 0); err != nil { // warm the frame
		t.Fatal(err)
	}
	if err := h.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	// New file reuses pm slot 0; its blocks must not surface "a"'s frames.
	h2, err := fs.Create(ctx, "b")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h2.WriteAt(ctx, page(0xBB), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := h2.ReadAt(ctx, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, page(0xBB)) {
		t.Fatal("stale frame leaked across pm-slot reuse")
	}

	// Truncate-to-zero then regrow: reads must see zeros / new data, not
	// the pre-truncate frame.
	if err := h2.Truncate(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := h2.WriteAt(ctx, []byte{0xCC}, 0); err != nil {
		t.Fatal(err)
	}
	small := make([]byte, 16)
	if _, err := h2.ReadAt(ctx, small, 0); err != nil {
		t.Fatal(err)
	}
	if small[0] != 0xCC || small[1] != 0x00 {
		t.Fatalf("post-truncate read wrong: % x", small[:4])
	}

	// Create over an existing open file resets content; frames must go too.
	if _, err := fs.Create(ctx, "b"); err != nil {
		t.Fatal(err)
	}
	n, err := h2.ReadAt(ctx, small, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("create-over-existing left readable bytes: n=%d % x", n, small[:4])
	}
}

// TestCacheObsMetrics: the pool's metric names must all be present in an obs
// snapshot of a cache-enabled FS.
func TestCacheObsMetrics(t *testing.T) {
	fs, ctx := newTestFS(cacheOpts(64))
	h, err := fs.Create(ctx, "f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.WriteAt(ctx, page(1), 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, LeafSpan)
	if _, err := h.ReadAt(ctx, buf, 0); err != nil {
		t.Fatal(err)
	}
	snap := fs.Obs().Snapshot()
	for _, name := range []string{
		"cache.hits", "cache.misses", "cache.evictions",
	} {
		if _, ok := snap.Values[name]; !ok {
			t.Errorf("metric %q missing from obs snapshot", name)
		}
	}
}

// TestCacheRemovedFileFramesStayDead: a removed file's open handle still
// reads and writes, and Remove frees the pm slot at once. Frames that handle
// fills (read) or installs (write) after the Remove must not answer for the
// next file that reuses the slot: its unwritten block 0 reads as zeros.
func TestCacheRemovedFileFramesStayDead(t *testing.T) {
	for _, tc := range []struct {
		name  string
		touch func(ctx *sim.Ctx, h vfs.File) error
	}{
		{"read", func(ctx *sim.Ctx, h vfs.File) error {
			_, err := h.ReadAt(ctx, make([]byte, 512), 0)
			return err
		}},
		{"write", func(ctx *sim.Ctx, h vfs.File) error {
			_, err := h.WriteAt(ctx, page('W'), 0)
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs, ctx := newTestFS(cacheOpts(64))
			a, err := fs.Create(ctx, "a")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := a.WriteAt(ctx, page('A'), 0); err != nil {
				t.Fatal(err)
			}
			if err := fs.Remove(ctx, "a"); err != nil {
				t.Fatal(err)
			}
			if err := tc.touch(ctx, a); err != nil {
				t.Fatal(err)
			}
			b, err := fs.Create(ctx, "b")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := b.WriteAt(ctx, page('B'), LeafSpan); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, 512)
			if _, err := b.ReadAt(ctx, got, 0); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, make([]byte, 512)) {
				t.Fatalf("new file's unwritten block 0 reads %q..., want zeros", got[:8])
			}
		})
	}
}
