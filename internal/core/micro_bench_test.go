package core

import (
	"testing"

	"mgsp/internal/nvm"
	"mgsp/internal/sim"
)

// Micro-benchmarks of MGSP primitives. They report virtual nanoseconds per
// operation (vns/op) — the cost-model time an op takes on the simulated
// Optane — alongside Go's own wall-clock ns/op (the simulator's speed).
func benchFS(b *testing.B) (*FS, *sim.Ctx, interface {
	WriteAt(*sim.Ctx, []byte, int64) (int, error)
	ReadAt(*sim.Ctx, []byte, int64) (int, error)
}) {
	b.Helper()
	dev := nvm.New(256<<20, sim.DefaultCosts())
	fs := MustNew(dev, DefaultOptions())
	ctx := sim.NewCtx(0, 1)
	f, err := fs.Create(ctx, "bench")
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 1<<20)
	for off := int64(0); off < 32<<20; off += 1 << 20 {
		f.WriteAt(ctx, buf, off)
	}
	return fs, ctx, f
}

func benchWrite(b *testing.B, size int, stride int64) {
	_, ctx, f := benchFS(b)
	buf := make([]byte, size)
	t0 := ctx.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := (int64(i) * stride) % (16 << 20)
		if _, err := f.WriteAt(ctx, buf, off); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(ctx.Now()-t0)/float64(b.N), "vns/op")
}

func BenchmarkCoreWrite512B(b *testing.B) { benchWrite(b, 512, 512) }
func BenchmarkCoreWrite4K(b *testing.B)   { benchWrite(b, 4096, 4096) }
func BenchmarkCoreWrite256K(b *testing.B) { benchWrite(b, 256<<10, 256<<10) }

func BenchmarkCoreRead4K(b *testing.B) {
	_, ctx, f := benchFS(b)
	buf := make([]byte, 4096)
	t0 := ctx.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := (int64(i) * 4096) % (16 << 20)
		if _, err := f.ReadAt(ctx, buf, off); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(ctx.Now()-t0)/float64(b.N), "vns/op")
}

func BenchmarkCoreRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dev := nvm.New(128<<20, sim.DefaultCosts())
		fs := MustNew(dev, DefaultOptions())
		ctx := sim.NewCtx(0, 1)
		f, _ := fs.Create(ctx, "f")
		f.WriteAt(ctx, make([]byte, 16<<20), 0)
		wbuf := make([]byte, 4096)
		for j := 0; j < 2000; j++ {
			f.WriteAt(ctx, wbuf, ctx.Rand.Int63n(16<<20-4096)&^4095)
		}
		dev.Recover()
		rctx := sim.NewCtx(1, 1)
		b.StartTimer()
		if _, err := Mount(rctx, dev, DefaultOptions()); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if i == b.N-1 {
			b.ReportMetric(float64(rctx.Now())/1e6, "recovery-vms")
		}
	}
}
