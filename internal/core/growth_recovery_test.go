package core

import (
	"bytes"
	"testing"

	"mgsp/internal/nvm"
	"mgsp/internal/sim"
)

// TestRecoveryAfterTreeGrowth regression-tests a data-loss bug: when the
// radix tree gains a level mid-run, the new root's existing bit lives only
// in DRAM (the node has no record yet). Recovery must restore such hints or
// the entire subtree becomes unreachable and write-back silently skips it.
func TestRecoveryAfterTreeGrowth(t *testing.T) {
	const fileSize = int64(16 << 20) // forces re-rooting past the 16M span
	dev := nvm.New(128<<20, sim.ZeroCosts())
	fs := MustNew(dev, DefaultOptions())
	ctx := sim.NewCtx(0, 1)
	f, _ := fs.Create(ctx, "data")
	chunk := bytes.Repeat([]byte{0xAB}, 1<<20)
	for off := int64(0); off < fileSize; off += 1 << 20 {
		f.WriteAt(ctx, chunk, off) // coarse-valid interior nodes + growth
	}
	pat := bytes.Repeat([]byte{0xCD}, 4096)
	var offs []int64
	for i := 0; i < 300; i++ {
		off := ctx.Rand.Int63n(fileSize/4096) * 4096
		offs = append(offs, off)
		f.WriteAt(ctx, pat, off)
	}
	dev.Recover()
	rctx := sim.NewCtx(1, 1)
	fs2, err := Mount(rctx, dev, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	f2, _ := fs2.Open(rctx, "data")
	buf := make([]byte, 4096)
	for _, off := range offs {
		f2.ReadAt(rctx, buf, off)
		if !bytes.Equal(buf, pat) {
			t.Fatalf("block at %d lost after growth+recovery", off)
		}
	}
	// Untouched regions keep the layout pattern.
	f2.ReadAt(rctx, buf, 0)
	seen := map[int64]bool{}
	for _, o := range offs {
		seen[o] = true
	}
	if !seen[0] && buf[0] != 0xAB {
		t.Fatalf("layout data corrupted: %#x", buf[0])
	}
}
