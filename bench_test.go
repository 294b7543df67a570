// Benchmarks regenerating every table and figure of the paper's evaluation.
// Each benchmark runs one experiment per iteration and reports the headline
// numbers as custom metrics (virtual-time throughput ratios), so
//
//	go test -bench=. -benchmem
//
// reproduces the full result set. For the complete printed tables use
// cmd/mgspbench.
package mgsp_test

import (
	"testing"

	"mgsp/internal/bench"
	"mgsp/internal/fio"
	"mgsp/internal/sqlite"
)

func benchScale() bench.Scale {
	sc := bench.Quick()
	return sc
}

func BenchmarkFig1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := bench.Fig1(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(t.Cell("Ext4-DAX", "throughput"), "Ext4-DAX-MiBps")
			b.ReportMetric(t.Cell("Libnvmmio-sync", "throughput"), "Libnvmmio-sync-MiBps")
		}
	}
}

func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := bench.Fig7(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(t.Cell("fsync-1", "MGSP"), "MGSP-fsync1-MiBps")
			b.ReportMetric(t.Cell("fsync-1", "Libnvmmio"), "Libnvmmio-fsync1-MiBps")
			b.ReportMetric(t.Cell("fsync-1", "Ext4-DAX"), "Ext4DAX-fsync1-MiBps")
		}
	}
}

func benchmarkFig8(b *testing.B, op fio.Op) {
	for i := 0; i < b.N; i++ {
		t, err := bench.Fig8(benchScale(), op)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, size := range []string{"1K", "4K", "256K"} {
				b.ReportMetric(t.Cell(size, "MGSP")/t.Cell(size, "Ext4-DAX"), size+"-MGSP-vs-Ext4DAX")
				b.ReportMetric(t.Cell(size, "MGSP")/t.Cell(size, "Libnvmmio"), size+"-MGSP-vs-Libnvmmio")
			}
		}
	}
}

func BenchmarkFig8aSeqWrite(b *testing.B)  { benchmarkFig8(b, fio.SeqWrite) }
func BenchmarkFig8bRandWrite(b *testing.B) { benchmarkFig8(b, fio.RandWrite) }
func BenchmarkFig8cSeqRead(b *testing.B)   { benchmarkFig8(b, fio.SeqRead) }
func BenchmarkFig8dRandRead(b *testing.B)  { benchmarkFig8(b, fio.RandRead) }

func BenchmarkFig9Mixed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := bench.Fig9(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, r := range t.Rows {
				b.ReportMetric(t.Cell(r, "MGSP"), r+"-MGSP-vs-Ext4DAX")
			}
		}
	}
}

func benchmarkFig10(b *testing.B, bs int, op fio.Op) {
	for i := 0; i < b.N; i++ {
		t, err := bench.Fig10(benchScale(), bs, op)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			last := t.Rows[len(t.Rows)-1]
			for _, sys := range t.Cols {
				b.ReportMetric(t.Cell(last, sys)/t.Cell("1-threads", sys), sys+"-scaling")
			}
		}
	}
}

func BenchmarkFig10Seq1K(b *testing.B)   { benchmarkFig10(b, 1024, fio.SeqWrite) }
func BenchmarkFig10Seq4K(b *testing.B)   { benchmarkFig10(b, 4096, fio.SeqWrite) }
func BenchmarkFig10Seq16K(b *testing.B)  { benchmarkFig10(b, 16<<10, fio.SeqWrite) }
func BenchmarkFig10Rand4K(b *testing.B)  { benchmarkFig10(b, 4096, fio.RandWrite) }
func BenchmarkFig10Rand16K(b *testing.B) { benchmarkFig10(b, 16<<10, fio.RandWrite) }

func benchmarkFig11(b *testing.B, mode sqlite.JournalMode) {
	for i := 0; i < b.N; i++ {
		t, err := bench.Fig11(benchScale(), mode)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, op := range t.Rows {
				b.ReportMetric(t.Cell(op, "MGSP")/t.Cell(op, "Ext4-DAX"), op+"-MGSP-vs-Ext4DAX")
			}
		}
	}
}

func BenchmarkFig11WAL(b *testing.B) { benchmarkFig11(b, sqlite.WAL) }
func BenchmarkFig11OFF(b *testing.B) { benchmarkFig11(b, sqlite.Off) }

func BenchmarkFig12TPCC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := bench.Fig12(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(t.Cell("OFF", "MGSP")/t.Cell("OFF", "Ext4-DAX"), "OFF-MGSP-vs-Ext4DAX")
			b.ReportMetric(t.Cell("OFF", "MGSP")/t.Cell("OFF", "Libnvmmio"), "OFF-MGSP-vs-Libnvmmio")
			b.ReportMetric(t.Cell("OFF", "MGSP")/t.Cell("OFF", "NOVA"), "OFF-MGSP-vs-NOVA")
		}
	}
}

func BenchmarkFig13Breakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := bench.Fig13(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, c := range t.Rows {
				b.ReportMetric(t.Cell(c, "+optimizations"), c+"-full-vs-Ext4DAX")
			}
		}
	}
}

func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := bench.TableII(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, size := range t.Rows {
				b.ReportMetric(t.Cell(size, "Libnvmmio"), size+"-Libnvmmio-WA")
				b.ReportMetric(t.Cell(size, "MGSP"), size+"-MGSP-WA")
			}
		}
	}
}

func BenchmarkRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := bench.Recovery(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			last := t.Rows[len(t.Rows)-1]
			b.ReportMetric(t.Cell(last, "mount-ms"), last+"-mount-ms")
			b.ReportMetric(t.Cell(last, "mount-ms")+t.Cell(last, "close-ms"), last+"-mount+close-ms")
		}
	}
}

func BenchmarkExtAtomic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := bench.ExtAtomic(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(t.Cell("ATOMIC", "MGSP")/t.Cell("OFF", "MGSP"), "ATOMIC-vs-OFF")
			b.ReportMetric(t.Cell("ATOMIC", "MGSP")/t.Cell("WAL", "MGSP"), "ATOMIC-vs-WAL")
		}
	}
}

func BenchmarkCore(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, metrics, _, err := bench.Core(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(t.Cell("seq-write-fsync1", "MiB/s"), "seq-write-MiB/s")
			b.ReportMetric(metrics["rand-write/wa.ratio"], "rand-write-WA")
		}
	}
}
