package bench

import "testing"

// TestCleanerShape is the acceptance check for the background cleaner: on a
// sustained overwrite workload the cleaner must (a) bound the steady-state
// log footprint at a level that does not scale with the op count, and (b)
// never make post-crash recovery slower. Mount keeps the logs instead of
// writing them back, so the checkpoint only saves the directory scan and
// pre-epoch replay — no longer a fixed multiple.
func TestCleanerShape(t *testing.T) {
	sc := tiny()
	tb, err := Cleaner(sc)
	if err != nil {
		t.Fatal(err)
	}
	off := tb.Cell("cleaner-off", "log-blocks")
	on := tb.Cell("cleaner-on", "log-blocks")
	if on*4 > off {
		t.Errorf("cleaner-on steady-state log = %.0f blocks vs %.0f off; want at least 4x smaller", on, off)
	}
	if tb.Cell("cleaner-on", "checkpoints") < 1 {
		t.Error("no checkpoints taken during the sustained run")
	}
	offMs := tb.Cell("cleaner-off", "recovery-ms")
	onMs := tb.Cell("cleaner-on", "recovery-ms")
	if onMs > offMs {
		t.Errorf("recovery with cleaner = %.2f ms vs %.2f ms without; want no slower", onMs, offMs)
	}

	// Boundedness: tripling the op count must not meaningfully grow the
	// cleaner-on footprint, while the cleaner-off footprint keeps growing.
	on1, err := runSustained(sc.FileSize, sc.Ops*4, 5, true)
	if err != nil {
		t.Fatal(err)
	}
	on3, err := runSustained(sc.FileSize, sc.Ops*12, 5, true)
	if err != nil {
		t.Fatal(err)
	}
	if on3.logBlocks > on1.logBlocks*2 {
		t.Errorf("cleaner-on log grew %d -> %d blocks over 3x ops; not bounded", on1.logBlocks, on3.logBlocks)
	}
	off1, err := runSustained(sc.FileSize, sc.Ops*4, 5, false)
	if err != nil {
		t.Fatal(err)
	}
	off3, err := runSustained(sc.FileSize, sc.Ops*12, 5, false)
	if err != nil {
		t.Fatal(err)
	}
	if off3.logBlocks <= off1.logBlocks {
		t.Errorf("cleaner-off log did not grow (%d -> %d); workload too small to exercise the cleaner", off1.logBlocks, off3.logBlocks)
	}
}
