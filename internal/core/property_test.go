package core

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"mgsp/internal/nvm"
	"mgsp/internal/sim"
)

// TestDifferentialAcrossConfigurations runs a randomized op sequence against
// an in-memory reference for a matrix of tree shapes and feature toggles —
// the content must be identical regardless of configuration.
func TestDifferentialAcrossConfigurations(t *testing.T) {
	configs := []Options{
		DefaultOptions(),
		{Degree: 2, SubBits: 2, MultiGranularity: true, Locking: LockMGL, GreedyLocking: true, LazyIntentionCleaning: true, MinSearchTree: true},
		{Degree: 16, SubBits: 16, MultiGranularity: true, Locking: LockMGL},
		{Degree: 64, SubBits: 1, MultiGranularity: true, Locking: LockMGL, MinSearchTree: true},
		{Degree: 8, SubBits: 8, MultiGranularity: false, Locking: LockFile},
		{Degree: 4, SubBits: 4, MultiGranularity: true, Locking: LockMGL, LazyIntentionCleaning: true},
	}
	const fileSize = 1 << 20
	for ci, opts := range configs {
		fs := MustNew(nvm.New(64<<20, sim.ZeroCosts()), opts)
		ctx := sim.NewCtx(0, int64(ci))
		f, err := fs.Create(ctx, "f")
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(4242)) // same workload for every config
		ref := make([]byte, fileSize)
		for op := 0; op < 250; op++ {
			off := rng.Int63n(fileSize - 70000)
			n := rng.Intn(65536) + 1
			pat := byte(op%253 + 1)
			f.WriteAt(ctx, bytes.Repeat([]byte{pat}, n), off)
			for j := int64(0); j < int64(n); j++ {
				ref[off+j] = pat
			}
			if op%25 == 24 {
				lo := rng.Int63n(fileSize / 2)
				ln := rng.Intn(100000) + 1
				if lo+int64(ln) > fileSize {
					ln = int(fileSize - lo)
				}
				buf := make([]byte, ln)
				got, _ := f.ReadAt(ctx, buf, lo)
				want := ref[lo:]
				if int64(len(want)) > int64(got) {
					want = want[:got]
				}
				if !bytes.Equal(buf[:got], want) {
					t.Fatalf("config %d (%+v): op %d: read mismatch", ci, opts, op)
				}
			}
		}
		// Close writes everything back; reopen and verify against the file.
		f.Close(ctx)
		f2, _ := fs.Open(ctx, "f")
		buf := make([]byte, fileSize)
		n, _ := f2.ReadAt(ctx, buf, 0)
		if !bytes.Equal(buf[:n], ref[:n]) {
			t.Fatalf("config %d: post-writeback content mismatch", ci)
		}
	}
}

// TestBitmapReachabilityInvariant: after arbitrary writes, every node with
// any bits set must be reachable (every proper ancestor has existing=1),
// unless it is shadowed by a staleness marker on some ancestor.
func TestBitmapReachabilityInvariant(t *testing.T) {
	f := func(seed int64) bool {
		opts := DefaultOptions()
		opts.Degree = 4
		fs := MustNew(nvm.New(64<<20, sim.ZeroCosts()), opts)
		ctx := sim.NewCtx(0, seed)
		fh, _ := fs.Create(ctx, "f")
		rng := rand.New(rand.NewSource(seed))
		for op := 0; op < 120; op++ {
			off := rng.Int63n(1 << 19)
			n := rng.Intn(1<<16) + 1
			fh.WriteAt(ctx, make([]byte, n), off)
		}
		ff := fs.files["f"]
		root := ff.root.Load()
		if root == nil {
			return true
		}
		return checkReach(root, false)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// checkReach walks the tree: under a node with existing=0, descendant bits
// are permitted only when a staleness marker shadows them.
func checkReach(n *node, shadowed bool) bool {
	if n.leaf {
		return shadowed || n.word.Load() == 0 || true // leaf bits need a reachable path, checked by parent
	}
	childShadowed := shadowed || !n.existing()
	hasStale := n.stale.Load()
	for i := range n.children {
		c := n.children[i].Load()
		if c == nil {
			continue
		}
		w := c.word.Load()
		if w != 0 && childShadowed && !shadowed {
			// Bits below an existing=0 node: legal only with the stale
			// marker (lazy cleaning) somewhere shadowing them.
			if !hasStale && !n.stale.Load() {
				return false
			}
		}
		if !checkReach(c, childShadowed) {
			return false
		}
	}
	return true
}

// TestWriteAmplificationBounds: across random workloads, MGSP's media
// writes stay within a small constant of user bytes (no double write), and
// fixed-granularity mode amplifies sub-block writes by ~blocksize/writesize.
func TestWriteAmplificationBounds(t *testing.T) {
	f := func(seed int64) bool {
		dev := nvm.New(64<<20, sim.ZeroCosts())
		fs := MustNew(dev, DefaultOptions())
		ctx := sim.NewCtx(0, seed)
		fh, _ := fs.Create(ctx, "f")
		fh.WriteAt(ctx, make([]byte, 1<<20), 0)
		dev.ResetStats()
		rng := rand.New(rand.NewSource(seed))
		var user int64
		for op := 0; op < 150; op++ {
			// 512-byte-aligned writes avoid RMW padding, isolating the
			// shadow-log property itself.
			units := int64(rng.Intn(8) + 1)
			off := rng.Int63n((1<<20-8*512)/512) * 512
			n := units * 512
			fh.WriteAt(ctx, make([]byte, n), off)
			user += n
		}
		media := dev.Stats().MediaWriteBytes.Load()
		wa := float64(media) / float64(user)
		return wa >= 1.0 && wa < 1.5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryEquivalenceProperty: for random crash points, remounting and
// reading must equal the pre-crash content at an op boundary.
func TestRecoveryEquivalenceProperty(t *testing.T) {
	opts := DefaultOptions()
	opts.Degree = 8
	const fileSize = 1 << 18
	f := func(seed int64) bool {
		dev := nvm.New(64<<20, sim.ZeroCosts())
		fs := MustNew(dev, opts)
		ctx := sim.NewCtx(0, seed)
		fh, _ := fs.Create(ctx, "f")
		fh.WriteAt(ctx, make([]byte, fileSize), 0)
		rng := rand.New(rand.NewSource(seed))

		type wr struct {
			off int64
			n   int
			pat byte
		}
		var script []wr
		for i := 0; i < 30; i++ {
			script = append(script, wr{rng.Int63n(fileSize - 40000), rng.Intn(32768) + 1, byte(i + 1)})
		}
		fail := rng.Int63n(400) + 1
		dev.ArmCrash(fail, seed)
		completed := -1
		for i := 0; i < len(script) && !dev.Crashed(); i++ {
			w := script[i]
			fh.WriteAt(ctx, bytes.Repeat([]byte{w.pat}, w.n), w.off)
			if !dev.Crashed() {
				completed = i
			}
		}
		dev.DisarmCrash()
		dev.Recover()
		fs2, err := Mount(ctx, dev, opts)
		if err != nil {
			return false
		}
		f2, err := fs2.Open(ctx, "f")
		if err != nil {
			return false
		}
		got := make([]byte, fileSize)
		f2.ReadAt(ctx, got, 0)
		ref := make([]byte, fileSize)
		for i := 0; i <= completed; i++ {
			w := script[i]
			for j := 0; j < w.n; j++ {
				ref[w.off+int64(j)] = w.pat
			}
		}
		if bytes.Equal(got, ref) {
			return true
		}
		if completed+1 < len(script) {
			w := script[completed+1]
			for j := 0; j < w.n; j++ {
				ref[w.off+int64(j)] = w.pat
			}
			return bytes.Equal(got, ref)
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// TestMinSearchTreeNeverChangesResults: with and without the cache, reads
// after identical writes agree byte for byte.
func TestMinSearchTreeNeverChangesResults(t *testing.T) {
	run := func(enable bool) []byte {
		opts := DefaultOptions()
		opts.MinSearchTree = enable
		fs := MustNew(nvm.New(64<<20, sim.ZeroCosts()), opts)
		ctx := sim.NewCtx(0, 3)
		f, _ := fs.Create(ctx, "f")
		rng := rand.New(rand.NewSource(77))
		for op := 0; op < 200; op++ {
			off := rng.Int63n(1 << 19)
			n := rng.Intn(9000) + 1
			f.WriteAt(ctx, bytes.Repeat([]byte{byte(op)}, n), off)
		}
		buf := make([]byte, 1<<19+16384)
		n, _ := f.ReadAt(ctx, buf, 0)
		return buf[:n]
	}
	if !bytes.Equal(run(true), run(false)) {
		t.Fatal("minimum search tree changed read results")
	}
}
