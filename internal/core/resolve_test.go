package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"mgsp/internal/cleaner"
	"mgsp/internal/sim"
	"mgsp/internal/vfs"
)

// resolverLimit keeps every write below 1 MiB (one Degree-4 root of five
// levels) and leaves EOF mid-block, so the zero-fill past EOF is exercised.
const resolverLimit = 1<<20 - 777

// randResolverWrite picks a write of one of the shapes the resolver must
// tell apart: a 512 B sub-block unit, a 4 KiB leaf, a whole interior span
// (a coarse log, Degree 4), or a range straddling a node boundary.
func randResolverWrite(rng *rand.Rand) (int64, []byte) {
	var off, n int64
	switch rng.Intn(4) {
	case 0:
		off, n = rng.Int63n(resolverLimit/512)*512, 512
	case 1:
		off, n = rng.Int63n(resolverLimit/LeafSpan)*LeafSpan, LeafSpan
	case 2:
		n = []int64{16 << 10, 64 << 10, 256 << 10}[rng.Intn(3)]
		off = rng.Int63n(resolverLimit/n) * n
	default:
		span := []int64{4 << 10, 16 << 10, 64 << 10, 256 << 10}[rng.Intn(4)]
		b := (rng.Int63n(resolverLimit/span-1) + 1) * span
		off = b - 1 - rng.Int63n(3000)
		n = b - off + 1 + rng.Int63n(5000)
	}
	n = min(n, resolverLimit-off)
	p := make([]byte, n)
	rng.Read(p)
	return off, p
}

// TestResolverOracle runs every view and sink of the resolver against a byte
// shadow on seeded random Degree-4 trees: the locked live read, the
// optimistic read, a snapshot taken mid-script (read locked and
// optimistically), the cleaner's merge of cold
// subtrees into a valid ancestor's log and into the file, and the last-Close
// write-back, checked on the raw file bytes.
func TestResolverOracle(t *testing.T) {
	merged := 0
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { merged += resolverOracle(t, seed) })
	}
	if merged == 0 {
		t.Fatal("no seed merged a subtree into a valid ancestor's log")
	}
}

func resolverOracle(t *testing.T, seed int64) (merged int) {
	fs, ctx := newTestFS(cleanerOpts())
	h, err := fs.Create(ctx, "f")
	if err != nil {
		t.Fatal(err)
	}
	f := fs.files["f"]
	rng := rand.New(rand.NewSource(seed))
	shadow := make([]byte, 1<<20)
	var size int64
	script := func(ops int) {
		t.Helper()
		for i := 0; i < ops; i++ {
			off, p := randResolverWrite(rng)
			if _, err := h.WriteAt(ctx, p, off); err != nil {
				t.Fatal(err)
			}
			copy(shadow[off:], p)
			size = max(size, off+int64(len(p)))
		}
	}
	ranges := func() [][2]int64 {
		rs := [][2]int64{{0, size}}
		for i := 0; i < 24; i++ {
			lo := rng.Int63n(size)
			rs = append(rs, [2]int64{lo, min(size, lo+1+rng.Int63n(100<<10))})
		}
		return rs
	}
	check := func(stage string) {
		t.Helper()
		for _, r := range ranges() {
			buf := make([]byte, r[1]-r[0])
			if r[1] == size {
				buf = append(buf, make([]byte, 100)...) // reads past EOF come back short
			}
			n, err := h.ReadAt(ctx, buf, r[0])
			if err != nil || int64(n) != r[1]-r[0] || !bytes.Equal(buf[:n], shadow[r[0]:r[1]]) {
				t.Fatalf("%s: ReadAt [%d,%d): n=%d err=%v, content differs from the shadow", stage, r[0], r[1], n, err)
			}
			buf = bytes.Repeat([]byte{0xa5}, n)
			if !f.readOptimistic(ctx, buf, r[0], nil, false) {
				t.Fatalf("%s: optimistic read of [%d,%d) abandoned with no writer open", stage, r[0], r[1])
			}
			if !bytes.Equal(buf, shadow[r[0]:r[1]]) {
				t.Fatalf("%s: optimistic read of [%d,%d) differs from the shadow", stage, r[0], r[1])
			}
		}
		// Across EOF the resolver itself reads zeros, whatever the buffer held.
		hi := min(size+2000, f.root.Load().span)
		buf := bytes.Repeat([]byte{0xa5}, int(hi-size+1000))
		f.resolveData(ctx, size-1000, hi, buf)
		if !bytes.Equal(buf[:1000], shadow[size-1000:size]) || !bytes.Equal(buf[1000:], make([]byte, hi-size)) {
			t.Fatalf("%s: resolving across EOF at %d: want the file's tail, then zeros", stage, size)
		}
	}

	script(150)
	check("before snapshot")
	id, err := fs.Snapshot(ctx, "f")
	if err != nil {
		t.Fatal(err)
	}
	frozen, frozenSize := append([]byte(nil), shadow...), size
	script(150)
	check("after snapshot")
	sh, err := fs.OpenSnapshot(ctx, "f", id)
	if err != nil {
		t.Fatal(err)
	}
	snap := sh.(*snapHandle).s
	for _, r := range ranges() {
		lo, hi := min(r[0], frozenSize), min(r[1], frozenSize)
		buf := make([]byte, hi-lo)
		if n, err := sh.ReadAt(ctx, buf, lo); err != nil || int64(n) != hi-lo || !bytes.Equal(buf, frozen[lo:hi]) {
			t.Fatalf("snapshot read [%d,%d): n=%d err=%v, content differs from the frozen shadow", lo, hi, n, err)
		}
		buf = bytes.Repeat([]byte{0xa5}, len(buf))
		if !f.readOptimistic(ctx, buf, lo, snap, false) {
			t.Fatalf("optimistic snapshot read of [%d,%d) abandoned with no writer open", lo, hi)
		}
		if !bytes.Equal(buf, frozen[lo:hi]) {
			t.Fatalf("optimistic snapshot read of [%d,%d) differs from the frozen shadow", lo, hi)
		}
	}
	if err := sh.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if err := fs.DropSnapshot(ctx, "f", id); err != nil {
		t.Fatal(err)
	}

	// Merge into an ancestor: clean every child subtree of a valid
	// interior, so its content moves into that interior's log.
	var valid []*node
	var collect func(n *node)
	collect = func(n *node) {
		if n.leaf {
			return
		}
		if n.parent != nil && n.valid() {
			valid = append(valid, n)
		}
		for i := range n.children {
			if c := n.children[i].Load(); c != nil {
				collect(c)
			}
		}
	}
	collect(f.root.Load())
	for _, fb := range valid {
		for i := range fb.children {
			c := fb.children[i].Load()
			if c == nil || !fb.valid() {
				continue
			}
			remaining := int64(1 << 62)
			var res cleaner.PassResult
			f.cleanSubtree(ctx, c, &remaining, &res)
			if res.Contended != 0 {
				t.Fatalf("cleanSubtree contended with no op in flight")
			}
			merged += res.SubtreesCleaned
		}
	}
	check("after merging into ancestors")

	// Every subtree cold: the second pass writes all of them back to the
	// file (or drops the ones a cleared existing bit cuts off).
	fs.CleanPass(ctx, 0)
	fs.CleanPass(ctx, 0)
	if blocks := fs.LogBlocks(); blocks != 0 {
		t.Fatalf("cold tree still holds %d log blocks after two passes", blocks)
	}
	check("after cleaning into the file")

	script(150)
	check("before close")
	if err := h.Close(ctx); err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, size)
	f.pf.DirectRead(ctx, raw, 0)
	if !bytes.Equal(raw, shadow[:size]) {
		t.Fatal("file bytes after the last Close differ from the shadow")
	}
	if rep := fs.AuditBlocks(); !rep.Clean() {
		t.Fatalf("audit after close: %d orphans %d unallocated", len(rep.Orphans), len(rep.Unallocated))
	}
	return merged
}

// TestCloseCoalescesWriteBack: the last Close copies each maximal run of
// log-served bytes (contiguous in the file and in the device) with one log
// read and one file write, not one per 512 B unit.
func TestCloseCoalescesWriteBack(t *testing.T) {
	// build lays out the same tree on a fresh FS: a pre-sized 1 MiB file,
	// 16 full-leaf 4 KiB writes and one 1 KiB sub-block write.
	build := func() (*FS, *sim.Ctx, vfs.File) {
		fs, ctx := newTestFS(DefaultOptions())
		h, err := fs.Create(ctx, "f")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.WriteAt(ctx, make([]byte, 1<<20), 0); err != nil {
			t.Fatal(err)
		}
		if err := h.Close(ctx); err != nil {
			t.Fatal(err)
		}
		if h, err = fs.Open(ctx, "f"); err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < 16; i++ {
			if _, err := h.WriteAt(ctx, fill(LeafSpan, byte(i)), (3+i)*LeafSpan); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := h.WriteAt(ctx, fill(1024, 99), 100*LeafSpan+512); err != nil {
			t.Fatal(err)
		}
		return fs, ctx, h
	}

	// The maximal runs, straight from the leaves' valid units.
	fs, ctx, h := build()
	type ext struct{ lo, hi, dev int64 }
	var units []ext
	unit := int64(LeafSpan / DefaultOptions().SubBits)
	var leaves func(n *node)
	leaves = func(n *node) {
		for i := range n.children {
			c := n.children[i].Load()
			switch {
			case c == nil:
			case !c.leaf:
				leaves(c)
			default:
				for u := int64(0); u < LeafSpan/unit; u++ {
					if c.word.Load()&(1<<uint(u)) != 0 {
						units = append(units, ext{c.offset() + u*unit, c.offset() + (u+1)*unit, c.logOff + u*unit})
					}
				}
			}
		}
	}
	leaves(fs.files["f"].root.Load())
	sort.Slice(units, func(i, j int) bool { return units[i].lo < units[j].lo })
	runs, logBytes := 0, int64(0)
	for i, u := range units {
		if i == 0 || units[i-1].hi != u.lo || units[i-1].dev+unit != u.dev {
			runs++
		}
		logBytes += u.hi - u.lo
	}

	st := fs.dev.Stats()
	ops0, read0 := st.MediaOps.Load(), st.MediaReadBytes.Load()
	if err := h.Close(ctx); err != nil {
		t.Fatal(err)
	}
	closeOps, closeRead := st.MediaOps.Load()-ops0, st.MediaReadBytes.Load()-read0

	// The same Close without the copy: what releasing the tree costs.
	fs2, ctx2, _ := build()
	f2 := fs2.files["f"]
	ops0 = fs2.dev.Stats().MediaOps.Load()
	f2.releaseSubtree(ctx2, f2.root.Load())
	releaseOps := fs2.dev.Stats().MediaOps.Load() - ops0

	if closeRead != logBytes {
		t.Errorf("close read %d media bytes, want the %d log-served bytes once", closeRead, logBytes)
	}
	if writes := closeOps - releaseOps; writes > int64(runs) {
		t.Errorf("close issued %d file writes (%d media ops, %d to release the tree) for %d maximal runs",
			writes, closeOps, releaseOps, runs)
	}
	t.Logf("close: %d media ops, %d releasing the tree, %d maximal runs, %d bytes read", closeOps, releaseOps, runs, closeRead)
}
