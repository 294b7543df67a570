package bench

import (
	"strings"
	"testing"

	"mgsp/internal/fio"
	"mgsp/internal/sqlite"
)

// tiny returns a scale small enough for unit testing while preserving
// steady-state behaviour.
func tiny() Scale {
	return Scale{FileSize: 8 << 20, Ops: 300, DBScale: 10, MaxThreads: 4}
}

func TestFig1Shape(t *testing.T) {
	tb, err := Fig1(tiny())
	if err != nil {
		t.Fatal(err)
	}
	// Per-op fsync must hurt every page-cache mode.
	for _, mode := range []string{"Ext4-wb", "Ext4-ordered", "Ext4-journal"} {
		if tb.Cell(mode+"-sync", "throughput") >= tb.Cell(mode, "throughput") {
			t.Errorf("%s: sync variant not slower", mode)
		}
	}
	// Libnvmmio without sync beats Libnvmmio with sync by a wide margin.
	if tb.Cell("Libnvmmio-sync", "throughput")*1.5 >= tb.Cell("Libnvmmio", "throughput") {
		t.Error("Libnvmmio sync penalty missing")
	}
}

func TestFig7Shape(t *testing.T) {
	tb, err := Fig7(tiny())
	if err != nil {
		t.Fatal(err)
	}
	// MGSP is essentially flat across sync intervals (each op is already a
	// synchronized atomic operation).
	flat := tb.Cell("fsync-1", "MGSP") / tb.Cell("no-fsync", "MGSP")
	if flat < 0.85 {
		t.Errorf("MGSP drops %.2fx with fsync-1; the paper shows no drop", flat)
	}
	// Libnvmmio collapses with frequent fsync relative to none.
	drop := tb.Cell("fsync-1", "Libnvmmio") / tb.Cell("no-fsync", "Libnvmmio")
	if drop > 0.7 {
		t.Errorf("Libnvmmio fsync-1 retains %.2fx of no-sync throughput; paper shows a large drop", drop)
	}
	// MGSP beats Libnvmmio and Ext4-DAX under per-op sync.
	if tb.Cell("fsync-1", "MGSP") <= tb.Cell("fsync-1", "Libnvmmio") ||
		tb.Cell("fsync-1", "MGSP") <= tb.Cell("fsync-1", "Ext4-DAX") {
		t.Error("MGSP does not win at fsync-1")
	}
}

func TestFig8WriteShape(t *testing.T) {
	tb, err := Fig8(tiny(), fio.SeqWrite)
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []string{"1K", "4K", "16K"} {
		mgsp := tb.Cell(size, "MGSP")
		if mgsp <= tb.Cell(size, "Libnvmmio") {
			t.Errorf("%s: MGSP (%.1f) does not beat Libnvmmio (%.1f)", size, mgsp, tb.Cell(size, "Libnvmmio"))
		}
		if mgsp <= tb.Cell(size, "Ext4-DAX") {
			t.Errorf("%s: MGSP (%.1f) does not beat Ext4-DAX (%.1f)", size, mgsp, tb.Cell(size, "Ext4-DAX"))
		}
	}
	// Fine-grained: MGSP clearly beats NOVA (which pays CoW page writes).
	if tb.Cell("1K", "MGSP") < 1.3*tb.Cell("1K", "NOVA") {
		t.Errorf("1K: MGSP/NOVA = %.2f, want >= 1.3 (paper: 1.69-2.06x)",
			tb.Cell("1K", "MGSP")/tb.Cell("1K", "NOVA"))
	}
}

func TestFig9Shape(t *testing.T) {
	tb, err := Fig9(tiny())
	if err != nil {
		t.Fatal(err)
	}
	// MGSP improves on Ext4-DAX at every ratio; Libnvmmio falls to or below
	// Ext4-DAX once writes reach half the mix.
	for _, r := range tb.Rows {
		if tb.Cell(r, "MGSP") < 1.1 {
			t.Errorf("%s: MGSP only %.2fx Ext4-DAX", r, tb.Cell(r, "MGSP"))
		}
	}
	if tb.Cell("write-90%", "Libnvmmio") > 1.1 {
		t.Errorf("write-90%%: Libnvmmio %.2fx Ext4-DAX; paper shows it below baseline at high write ratios",
			tb.Cell("write-90%", "Libnvmmio"))
	}
}

func TestFig10Shape(t *testing.T) {
	tb, err := Fig10(tiny(), 4096, fio.SeqWrite)
	if err != nil {
		t.Fatal(err)
	}
	// MGSP scales: 4 threads beat 1 thread clearly.
	if tb.Cell("4-threads", "MGSP") < 1.8*tb.Cell("1-threads", "MGSP") {
		t.Errorf("MGSP 4-thread speedup %.2fx, want >= 1.8",
			tb.Cell("4-threads", "MGSP")/tb.Cell("1-threads", "MGSP"))
	}
	// Ext4-DAX is inode-lock bound: nearly flat.
	if tb.Cell("4-threads", "Ext4-DAX") > 1.5*tb.Cell("1-threads", "Ext4-DAX") {
		t.Errorf("Ext4-DAX scales %.2fx; the inode lock should prevent that",
			tb.Cell("4-threads", "Ext4-DAX")/tb.Cell("1-threads", "Ext4-DAX"))
	}
	// MGSP wins at max threads.
	if tb.Cell("4-threads", "MGSP") <= tb.Cell("4-threads", "Ext4-DAX") {
		t.Error("MGSP does not win multithreaded")
	}
}

func TestTableIIShape(t *testing.T) {
	tb, err := TableII(tiny())
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range tb.Rows {
		if wa := tb.Cell(size, "Libnvmmio"); wa < 1.7 || wa > 2.5 {
			t.Errorf("%s Libnvmmio WA = %.2f, paper ~2.0", size, wa)
		}
		if wa := tb.Cell(size, "Libnvmmio-wo-sync"); wa > 1.3 {
			t.Errorf("%s Libnvmmio-wo-sync WA = %.2f, paper ~1.0", size, wa)
		}
		if wa := tb.Cell(size, "MGSP"); wa > 1.4 {
			t.Errorf("%s MGSP WA = %.2f, paper ~1.0-1.1", size, wa)
		}
	}
}

func TestFig13Shape(t *testing.T) {
	tb, err := Fig13(tiny())
	if err != nil {
		t.Fatal(err)
	}
	// The full system beats bare Ext4-DAX in every case, and each case's
	// full configuration is at least as good as the shadow-log-only start.
	for _, c := range tb.Rows {
		full := tb.Cell(c, "+optimizations")
		if full < 1.5 {
			t.Errorf("%s: full MGSP only %.2fx Ext4-DAX (paper: ~3-4x)", c, full)
		}
		if full < tb.Cell(c, "+shadow-log")*0.9 {
			t.Errorf("%s: optimizations lost ground vs shadow log alone", c)
		}
	}
	// Multi-threaded case: MGL is the dominant contributor over file lock.
	if tb.Cell("4K-4thr", "+MGL") < 1.5*tb.Cell("4K-4thr", "+multi-granularity") {
		t.Errorf("4K-4thr: MGL adds only %.2fx over file locking",
			tb.Cell("4K-4thr", "+MGL")/tb.Cell("4K-4thr", "+multi-granularity"))
	}
}

func TestFig11Runs(t *testing.T) {
	tb, err := Fig11(tiny(), sqlite.Off)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range tb.Rows {
		if tb.Cell(op, "MGSP") <= 0 {
			t.Errorf("%s: zero MGSP throughput", op)
		}
	}
}

func TestFig12Runs(t *testing.T) {
	tb, err := Fig12(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if tb.Cell("OFF", "MGSP") <= 0 || tb.Cell("WAL", "MGSP") <= 0 {
		t.Fatal("zero tpmC")
	}
}

func TestRecoveryRuns(t *testing.T) {
	tb, err := Recovery(tiny())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tb.Rows {
		if tb.Cell(row, "mount-ms") <= 0 {
			t.Errorf("%s: zero mount time", row)
		}
		// The close after a crash writes the kept logs back: it must cost
		// time and media traffic, or the §III-D comparison measures nothing.
		if tb.Cell(row, "close-ms") <= 0 || tb.Cell(row, "logdata-MiB") <= 0 {
			t.Errorf("%s: close-ms %.3f logdata-MiB %.3f, want both > 0", row,
				tb.Cell(row, "close-ms"), tb.Cell(row, "logdata-MiB"))
		}
	}
}

func TestTableFormat(t *testing.T) {
	tb := NewTable("x", "demo", "u", []string{"a"}, []string{"r"})
	tb.Cells[0][0] = 3.14
	out := tb.Format()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "3.14") {
		t.Fatalf("format output missing content:\n%s", out)
	}
}
