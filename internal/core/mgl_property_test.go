package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"mgsp/internal/nvm"
	"mgsp/internal/sim"
)

// TestMGLStripeBijection pins the hashing property the sharded fast paths
// are built on: foreground worker IDs 0..intentStripes-1 map to pairwise
// distinct sticky-intent stripes, and 0..metaAreas-1 map to pairwise
// distinct metadata-log home areas. If the hash loses the bijection, two
// "disjoint" workers silently share a stripe (map-lock contention) or a
// home area (claim CAS contention) and the fig10 scaling story falls over
// without any test failing — so the property is pinned here.
func TestMGLStripeBijection(t *testing.T) {
	stripes := make(map[int]int)
	for w := 0; w < intentStripes; w++ {
		s := sim.WorkerHash(w) & (intentStripes - 1)
		if prev, dup := stripes[s]; dup {
			t.Errorf("workers %d and %d share intent stripe %d", prev, w, s)
		}
		stripes[s] = w
	}
	areas := make(map[int]int)
	for w := 0; w < metaAreas; w++ {
		a := sim.WorkerHash(w) % metaAreas
		if prev, dup := areas[a]; dup {
			t.Errorf("workers %d and %d share metadata home area %d", prev, w, a)
		}
		areas[a] = w
	}
}

// TestMGLDisjointWritersTryFailBudget is the contention property the
// many-core design is judged by: writers confined to disjoint regions must
// observe core.mgl_try_fails/op <= 0.05 — the same budget mgspstat enforces
// on the fig10s disjoint-rand ladder. The counter only moves when a
// try-acquisition genuinely loses (the background cleaner's subtree
// try-locks), so the cleaner runs live during the workload: disjoint
// writers keep only their own subtrees hot, and the generation stamps must
// steer the cleaner away from them.
func TestMGLDisjointWritersTryFailBudget(t *testing.T) {
	for _, writers := range []int{8, 16} {
		writers := writers
		t.Run(fmt.Sprintf("writers=%d", writers), func(t *testing.T) {
			opts := DefaultOptions()
			opts.CleanerInterval = 50_000
			opts.CleanerBudget = 64
			dev := nvm.New(256<<20, sim.DefaultCosts())
			fs := MustNew(dev, opts)

			setup := sim.NewCtx(100, 1)
			const region = 1 << 20
			f0, _ := fs.Create(setup, "f")
			f0.WriteAt(setup, make([]byte, writers*region), 0)

			const opsPer = 60
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					ctx := sim.NewCtx(id, int64(id)*71+5)
					h, err := fs.Open(ctx, "f")
					if err != nil {
						t.Errorf("open: %v", err)
						return
					}
					defer h.Close(ctx)
					base := int64(id) * region
					pat := bytes.Repeat([]byte{byte(id + 1)}, 1024)
					for i := 0; i < opsPer; i++ {
						h.WriteAt(ctx, pat, base+int64(ctx.Rand.Intn(region-1024)))
					}
				}(w)
			}
			wg.Wait()
			if t.Failed() {
				return
			}

			if fs.stats.CleanerPasses.Load() == 0 {
				t.Fatal("cleaner never ran: the try-fail budget was not exercised")
			}
			ops := int64(writers * opsPer)
			fails := fs.stats.MGLTryFails.Load()
			if perOp := float64(fails) / float64(ops); perOp > 0.05 {
				t.Fatalf("disjoint writers: %d try-fails over %d ops = %.3f/op, budget 0.05 (cleaner passes: %d)",
					fails, ops, perOp, fs.stats.CleanerPasses.Load())
			}
		})
	}
}

// TestMGLSharedPrefixSerialization is the other half of the contention
// property: when writers DO share a lock prefix — every op inside one 256K
// subtree, many ops on the very same leaf — MGL must serialize them into
// block-atomic history. Eight workers hammer four shared 4 KiB blocks while
// readers continuously check that no block ever reads as an interleaving of
// two writers, and the final state of every block must be exactly one
// writer's fill. It runs without the frame tier (readers on the optimistic
// lock-free path) and with a one-set tier (readers on latched frames).
func TestMGLSharedPrefixSerialization(t *testing.T) {
	for _, frames := range []int{0, 8} {
		t.Run(fmt.Sprintf("frames=%d", frames), func(t *testing.T) {
			testSharedPrefixSerialization(t, frames)
		})
	}
}

func testSharedPrefixSerialization(t *testing.T, frames int) {
	dev := nvm.New(128<<20, sim.ZeroCosts())
	opts := DefaultOptions()
	opts.CacheFrames = frames
	fs := MustNew(dev, opts)
	setup := sim.NewCtx(100, 1)
	f0, _ := fs.Create(setup, "f")
	f0.WriteAt(setup, make([]byte, 256*1024), 0)

	const (
		writers = 8
		iters   = 60
		blocks  = 4
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			ctx := sim.NewCtx(id, int64(id)*31+7)
			h, _ := fs.Open(ctx, "f")
			defer h.Close(ctx)
			pat := bytes.Repeat([]byte{byte(id + 1)}, 4096)
			for i := 0; i < iters; i++ {
				h.WriteAt(ctx, pat, int64((i+id)%blocks)*4096)
			}
		}(w)
	}
	var readerWG sync.WaitGroup
	for r := 0; r < 2; r++ {
		readerWG.Add(1)
		go func(id int) {
			defer readerWG.Done()
			ctx := sim.NewCtx(20+id, int64(id)+99)
			h, _ := fs.Open(ctx, "f")
			defer h.Close(ctx)
			buf := make([]byte, 4096)
			for {
				select {
				case <-stop:
					return
				default:
				}
				b := ctx.Rand.Intn(blocks)
				h.ReadAt(ctx, buf, int64(b)*4096)
				first := buf[0]
				for i, x := range buf {
					if x != first {
						t.Errorf("block %d interleaved: byte 0 = %#x, byte %d = %#x", b, first, i, x)
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	close(stop)
	readerWG.Wait()
	if t.Failed() {
		return
	}

	got := make([]byte, blocks*4096)
	h, _ := fs.Open(setup, "f")
	h.ReadAt(setup, got, 0)
	for b := 0; b < blocks; b++ {
		blk := got[b*4096 : (b+1)*4096]
		if blk[0] == 0 || blk[0] > writers {
			t.Fatalf("block %d final byte %#x is no writer's fill", b, blk[0])
		}
		for i, x := range blk {
			if x != blk[0] {
				t.Fatalf("block %d final state interleaved at byte %d (%#x vs %#x)", b, i, x, blk[0])
			}
		}
	}
	// The readers must actually have exercised the optimistic machinery —
	// served lock-free or counted a fallback — or the serialization check
	// above silently ran on the locked path only; with the tier on they must
	// also have been served by frames.
	if fs.stats.OptReads.Load()+fs.stats.OptReadFallbacks.Load() == 0 {
		t.Fatal("optimistic read path never engaged")
	}
	if frames > 0 && fs.Cache().Stats().Hits == 0 {
		t.Fatal("no read hit a frame")
	}
}

// TestMGLLockMatrixSticky extends the Table-I matrix to the striped
// sticky-intent path: a worker holds IR/IW as a STICKY intention (cached in
// its intent stripe, never released by the idle owner) and a second worker
// acquires R/W on the same node through lockCoarse. Compatible cells must
// grant without descending; incompatible cells must descend to child locks
// (lazy intention cleaning) instead of blocking on the sticky holder — and
// the sticky bookkeeping must live in the holder's own stripe.
func TestMGLLockMatrixSticky(t *testing.T) {
	for _, held := range []lockMode{lockIR, lockIW} {
		for _, want := range []lockMode{lockR, lockW} {
			held, want := held, want
			t.Run(held.String()+"-"+want.String(), func(t *testing.T) {
				opts := smallTreeOpts()
				if !opts.LazyIntentionCleaning {
					t.Fatal("fixture must run with lazy intention cleaning")
				}
				dev := nvm.New(64<<20, sim.ZeroCosts())
				fs := MustNew(dev, opts)
				setup := sim.NewCtx(100, 1)
				f0, _ := fs.Create(setup, "f")
				f0.WriteAt(setup, make([]byte, 256*1024), 0)
				ff := fs.files["f"]

				ctxA := sim.NewCtx(0, 1)
				ctxB := sim.NewCtx(1, 2)
				// A 64 KiB interior node (degree 4: 4K leaves, 16K, 64K spans).
				target := ff.ensureChild(ctxA, ff.root.Load(), 0)
				if target.leaf {
					t.Fatalf("fixture node is a leaf (span %d)", target.span)
				}

				olA := &opLocks{}
				ff.acquireIntent(ctxA, target, held, olA)
				sh := ff.intentShard(ctxA.ID)
				sh.mu.Lock()
				wi := sh.m[ctxA.ID][target]
				sh.mu.Unlock()
				if wi == nil {
					t.Fatal("sticky intent not recorded in the holder's stripe")
				}

				d0 := fs.stats.Descends.Load()
				olB := &opLocks{write: want == lockW}
				done := make(chan struct{})
				go func() {
					ff.lockCoarse(ctxB, target, want, olB)
					close(done)
				}()
				select {
				case <-done:
				case <-time.After(30 * time.Second):
					t.Fatalf("lockCoarse(%v) blocked on a sticky %v that will never release", want, held)
				}
				descended := fs.stats.Descends.Load() > d0
				if ok := compatible(held, want); descended == ok {
					t.Fatalf("lockCoarse(%v) against sticky %v: descended=%v, compatible=%v",
						want, held, descended, ok)
				}
				ff.release(ctxB, olB)
				ff.dropStickyIntent(ctxA, target)
			})
		}
	}
}
