package core

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"mgsp/internal/nvm"
	"mgsp/internal/sim"
	"mgsp/internal/vfs"
)

// TestWriterGateDrainsReaders pins the one validation of lock-free reads:
// every entry point that mutates what the optimistic walk reads opens a
// section in the file's writer gate and completes only after the registered
// readers deregister, and a read that finds a section open falls back to
// the locked walk.
func TestWriterGateDrainsReaders(t *testing.T) {
	page := bytes.Repeat([]byte{0x5A}, LeafSpan)
	for _, c := range []struct {
		name   string
		mutate func(ctx *sim.Ctx, fs *FS, h vfs.File) error
	}{
		{"WriteAt", func(ctx *sim.Ctx, _ *FS, h vfs.File) error {
			_, err := h.WriteAt(ctx, page, 0)
			return err
		}},
		{"WriteMulti", func(ctx *sim.Ctx, _ *FS, h vfs.File) error {
			return h.(*handle).WriteMulti(ctx, []Update{{Off: 0, Data: page}, {Off: 8 * LeafSpan, Data: page}})
		}},
		{"Truncate", func(ctx *sim.Ctx, _ *FS, h vfs.File) error {
			return h.Truncate(ctx, LeafSpan)
		}},
		{"last Close", func(ctx *sim.Ctx, _ *FS, h vfs.File) error {
			return h.Close(ctx)
		}},
		{"create-over", func(ctx *sim.Ctx, fs *FS, _ vfs.File) error {
			_, err := fs.Create(ctx, "f")
			return err
		}},
		{"cleaner pass", func(ctx *sim.Ctx, fs *FS, _ vfs.File) error {
			fs.CleanPass(ctx, 0)
			return nil
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			opts := DefaultOptions()
			opts.CleanerInterval = 1 << 50 // armed, but passes run only when forced
			fs := MustNew(nvm.New(64<<20, sim.ZeroCosts()), opts)
			setup := sim.NewCtx(100, 1)
			h, err := fs.Create(setup, "f")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := h.WriteAt(setup, make([]byte, 64*LeafSpan), 0); err != nil {
				t.Fatal(err)
			}
			f := fs.files["f"]
			f.optRd.Add(1) // a registered optimistic reader
			ws := f.optWS.Load()
			done := make(chan error, 1)
			go func() { done <- c.mutate(sim.NewCtx(1, 2), fs, h) }()
			for f.optWS.Load() == ws {
				select {
				case err := <-done:
					t.Fatalf("completed (err %v) without opening a writer section", err)
				default:
					runtime.Gosched()
				}
			}
			select {
			case err := <-done:
				t.Fatalf("completed (err %v) while a reader was registered", err)
			case <-time.After(20 * time.Millisecond):
			}
			f.optRd.Add(-1)
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		})
	}

	t.Run("open section", func(t *testing.T) {
		fs := MustNew(nvm.New(64<<20, sim.ZeroCosts()), DefaultOptions())
		ctx := sim.NewCtx(0, 1)
		h, _ := fs.Create(ctx, "f")
		if _, err := h.WriteAt(ctx, page, 0); err != nil {
			t.Fatal(err)
		}
		f := fs.files["f"]
		f.optWS.Add(1) // a writer inside its section
		reads, fallbacks := fs.stats.OptReads.Load(), fs.stats.OptReadFallbacks.Load()
		buf := make([]byte, LeafSpan)
		if _, err := h.ReadAt(ctx, buf, 0); err != nil || !bytes.Equal(buf, page) {
			t.Fatalf("read under an open section: err %v, content ok %v", err, bytes.Equal(buf, page))
		}
		if got := fs.stats.OptReadFallbacks.Load() - fallbacks; got != 1 {
			t.Fatalf("OptReadFallbacks moved by %d, want 1", got)
		}
		if got := fs.stats.OptReads.Load() - reads; got != 0 {
			t.Fatalf("OptReads moved by %d, want 0", got)
		}
		f.optWF.Add(1)
	})
}
