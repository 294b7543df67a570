package core

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"mgsp/internal/nvm"
	"mgsp/internal/sim"
	"mgsp/internal/vfs"
)

// TestMetaLogClaimCollision: workers whose ids hash to the same entry must
// linear-probe to distinct entries, concurrently.
func TestMetaLogClaimCollision(t *testing.T) {
	dev := nvm.New(1<<20, sim.ZeroCosts())
	ml := newMetaLog(dev, 0, 32)
	const workers = 16
	results := make(chan int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			ctx := sim.NewCtx(0, int64(id)) // same worker id 0: worst case
			results <- ml.claim(ctx, 0)
		}(w)
	}
	wg.Wait()
	close(results)
	seen := make(map[int]bool)
	for i := range results {
		if seen[i] {
			t.Fatalf("entry %d claimed twice under collision", i)
		}
		seen[i] = true
	}
}

// TestFixedGranularityCrashSweep: the shadow-log-only ablation must still be
// operation-atomic.
func TestFixedGranularityCrashSweep(t *testing.T) {
	opts := DefaultOptions()
	opts.MultiGranularity = false
	opts.Locking = LockFile
	opts.GreedyLocking = false
	opts.LazyIntentionCleaning = false
	opts.MinSearchTree = false

	oldData := bytes.Repeat([]byte{0x77}, 32*1024)
	newData := bytes.Repeat([]byte{0x88}, 5000) // unaligned, multi-block

	for fail := int64(0); ; fail++ {
		fs, crashed := crashRun(t, opts, fail,
			func(ctx *sim.Ctx, fs *FS) {
				f, _ := fs.Create(ctx, "f")
				f.WriteAt(ctx, oldData, 0)
			},
			func(ctx *sim.Ctx, fs *FS) {
				f, _ := fs.Open(ctx, "f")
				f.WriteAt(ctx, newData, 3000)
			})
		ctx := sim.NewCtx(9, 9)
		f, _ := fs.Open(ctx, "f")
		got := make([]byte, 32*1024)
		f.ReadAt(ctx, got, 0)
		want := append([]byte{}, oldData...)
		if bytes.Equal(got[3000:8000], newData) {
			copy(want[3000:], newData)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("fail=%d: fixed-granularity write torn", fail)
		}
		if !crashed {
			return
		}
	}
}

// TestSubBits16FineWrites: the finest configuration (256 B units) gives the
// lowest write amplification for 256 B writes.
func TestSubBits16FineWrites(t *testing.T) {
	run := func(subBits int) float64 {
		opts := DefaultOptions()
		opts.SubBits = subBits
		dev := nvm.New(64<<20, sim.ZeroCosts())
		fs := MustNew(dev, opts)
		ctx := sim.NewCtx(0, 1)
		f, _ := fs.Create(ctx, "f")
		f.WriteAt(ctx, make([]byte, 64*1024), 0)
		dev.ResetStats()
		unit := int64(4096 / subBits)
		const ops = 64
		for i := 0; i < ops; i++ {
			f.WriteAt(ctx, make([]byte, 256), (int64(i)*5%128)*unit)
		}
		return float64(dev.Stats().MediaWriteBytes.Load()) / float64(ops*256)
	}
	wa16 := run(16) // 256B units: exact fit
	wa2 := run(2)   // 2K units: 8x padding
	if wa16 > 1.5 {
		t.Fatalf("SubBits=16 WA for 256B writes = %.2f, want ~1", wa16)
	}
	if wa2 < 4 {
		t.Fatalf("SubBits=2 WA for 256B writes = %.2f, want ~8 (padding to 2K units)", wa2)
	}
}

// TestConcurrentReadersScaleUnderMGL: pure readers on disjoint ranges do not
// serialize in virtual time (IR/R compatibility).
func TestConcurrentReadersScale(t *testing.T) {
	dev := nvm.New(64<<20, sim.DefaultCosts())
	fs := MustNew(dev, DefaultOptions())
	setup := sim.NewCtx(99, 1)
	f, _ := fs.Create(setup, "f")
	f.WriteAt(setup, make([]byte, 4<<20), 0)

	run := func(workers int) int64 {
		ctxs := make([]*sim.Ctx, workers)
		var wg sync.WaitGroup
		for i := range ctxs {
			ctxs[i] = sim.NewCtx(i, int64(i))
			ctxs[i].AdvanceTo(setup.Now())
			wg.Add(1)
			go func(c *sim.Ctx, id int) {
				defer wg.Done()
				h, _ := fs.Open(c, "f")
				defer h.Close(c)
				buf := make([]byte, 4096)
				base := int64(id) * (1 << 20)
				for j := 0; j < 100; j++ {
					h.ReadAt(c, buf, base+int64(j%200)*4096)
				}
			}(ctxs[i], i)
		}
		wg.Wait()
		return sim.MaxTime(ctxs) - setup.Now()
	}
	t1 := run(1)
	t4 := run(4)
	if t4 > t1*2 {
		t.Fatalf("4 readers took %dns vs 1 reader %dns: readers serialized", t4, t1)
	}
}

// TestEmptyFileReads: reads on empty/fresh files are well-behaved.
func TestEmptyFileReads(t *testing.T) {
	fs, ctx := newTestFS(DefaultOptions())
	f, _ := fs.Create(ctx, "f")
	buf := make([]byte, 100)
	if n, err := f.ReadAt(ctx, buf, 0); n != 0 || err != nil {
		t.Fatalf("empty read = %d, %v", n, err)
	}
	if n, err := f.ReadAt(ctx, buf, 1<<30); n != 0 || err != nil {
		t.Fatalf("far read = %d, %v", n, err)
	}
	if _, err := f.WriteAt(ctx, nil, 0); err != nil {
		t.Fatalf("empty write: %v", err)
	}
}

// TestManyFiles: the node directory and metadata log are shared across
// files without interference.
func TestManyFiles(t *testing.T) {
	fs, ctx := newTestFS(smallTreeOpts())
	const files = 30
	handles := make([]interface {
		WriteAt(*sim.Ctx, []byte, int64) (int, error)
		ReadAt(*sim.Ctx, []byte, int64) (int, error)
	}, files)
	for i := range handles {
		h, err := fs.Create(ctx, string(rune('a'+i%26))+string(rune('0'+i/26)))
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = h
		h.WriteAt(ctx, bytes.Repeat([]byte{byte(i + 1)}, 20000), 0)
	}
	for i, h := range handles {
		buf := make([]byte, 20000)
		h.ReadAt(ctx, buf, 0)
		for j, b := range buf {
			if b != byte(i+1) {
				t.Fatalf("file %d byte %d = %d (cross-file corruption)", i, j, b)
			}
		}
	}
}

// TestMetaLogWaitsWhenFull: with every op slot claimed, a new claim waits
// until one is retired (the paper's §III-C1 overflow behaviour). A
// 32-entry log spans two home areas whose slot 0 is each area's cursor,
// leaving 2*metaAreaOpSlots claimable op slots.
func TestMetaLogWaitsWhenFull(t *testing.T) {
	dev := nvm.New(1<<20, sim.ZeroCosts())
	ml := newMetaLog(dev, 0, 32)
	ctx := sim.NewCtx(0, 1)
	var held []int
	for i := 0; i < 2*metaAreaOpSlots; i++ {
		held = append(held, ml.claim(ctx, i))
	}
	got := make(chan int)
	go func() {
		c := sim.NewCtx(99, 2)
		got <- ml.claim(c, 99)
	}()
	select {
	case i := <-got:
		t.Fatalf("claim on a full log returned %d immediately", i)
	case <-time.After(50 * time.Millisecond):
	}
	ml.retire(ctx, held[7])
	select {
	case i := <-got:
		if i != held[7] {
			t.Fatalf("waiter got entry %d, want the retired %d", i, held[7])
		}
	case <-time.After(10 * time.Second):
		t.Fatal("claim never observed the retirement")
	}
	for _, i := range held {
		if i != held[7] {
			ml.retire(ctx, i)
		}
	}
}

// TestTreeResetRacingOps: Truncate and create-over drop the whole tree. A
// write or a read in flight on another handle must finish before the tree
// goes, not run on against a nil root.
func TestTreeResetRacingOps(t *testing.T) {
	const fileSize = 1 << 20
	for _, reset := range []string{"truncate", "create-over"} {
		t.Run(reset, func(t *testing.T) {
			fs := MustNew(nvm.New(64<<20, sim.ZeroCosts()), DefaultOptions())
			setup := sim.NewCtx(100, 1)
			h0, err := fs.Create(setup, "f")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := h0.WriteAt(setup, make([]byte, fileSize), 0); err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			stop := make(chan struct{})
			for w := 0; w < 2; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					ctx := sim.NewCtx(w, int64(w)+7)
					h, err := fs.Open(ctx, "f")
					if err != nil {
						t.Error(err)
						return
					}
					defer h.Close(ctx)
					buf := make([]byte, LeafSpan)
					for {
						select {
						case <-stop:
							return
						default:
						}
						off := int64(ctx.Rand.Intn(fileSize/LeafSpan)) * LeafSpan
						if w == 0 {
							_, err = h.WriteAt(ctx, buf, off)
						} else {
							_, err = h.ReadAt(ctx, buf, off)
						}
						if err != nil {
							t.Error(err)
							return
						}
					}
				}(w)
			}
			ctx := sim.NewCtx(10, 3)
			for i := 0; i < 200; i++ {
				if reset == "truncate" {
					err = h0.Truncate(ctx, int64(ctx.Rand.Intn(fileSize)))
				} else {
					var h vfs.File
					if h, err = fs.Create(ctx, "f"); err == nil {
						err = h.Close(ctx)
					}
				}
				if err != nil {
					t.Error(err)
					break
				}
			}
			close(stop)
			wg.Wait()
			if err := h0.Close(setup); err != nil {
				t.Fatal(err)
			}
			if rep := fs.AuditBlocks(); !rep.Clean() {
				t.Fatalf("leaked or double-counted blocks: %d orphans, %d unallocated", len(rep.Orphans), len(rep.Unallocated))
			}
		})
	}
}
