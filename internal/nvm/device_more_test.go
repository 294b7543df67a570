package nvm

import (
	"bytes"
	"sync"
	"testing"

	"mgsp/internal/sim"
)

// TestConcurrentDisjointDeviceAccess: concurrent workers on disjoint ranges
// keep data integrity and sane counters.
func TestConcurrentDisjointDeviceAccess(t *testing.T) {
	d := New(16<<20, sim.ZeroCosts())
	const workers = 8
	const region = 1 << 20
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			ctx := sim.NewCtx(id, int64(id))
			base := int64(id) * region
			pat := bytes.Repeat([]byte{byte(id + 1)}, 4096)
			for i := 0; i < 100; i++ {
				off := base + int64(i%200)*4096
				if i%2 == 0 {
					d.WriteNT(ctx, pat, off)
				} else {
					d.Write(ctx, pat, off)
					d.Persist(ctx, off, 4096)
				}
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		got := d.Inspect(int64(w)*region, 4096)
		for i, b := range got {
			if b != byte(w+1) {
				t.Fatalf("worker %d byte %d = %d", w, i, b)
			}
		}
	}
	if d.Stats().MediaWriteBytes.Load() == 0 || d.Stats().Flushes.Load() == 0 {
		t.Fatal("counters did not advance")
	}
}

// TestCrashDuringFlushTearsAtLineGranularity: an armed Flush persists a
// prefix of its dirty lines, the last possibly torn at 8-byte granularity.
func TestCrashDuringFlushTears(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		d := New(1<<16, sim.ZeroCosts())
		ctx := sim.NewCtx(0, 1)
		data := bytes.Repeat([]byte{0xCE}, 1024) // 16 lines
		d.Write(ctx, data, 0)
		d.ArmCrash(0, seed)
		d.Flush(ctx, 0, 1024)
		if !d.Crashed() {
			t.Fatalf("seed %d: armed Flush did not cut power", seed)
		}
		got := d.InspectDurable(0, 1024)
		// Every 8-byte unit is either fully old (zero) or fully new.
		for u := 0; u < 1024; u += 8 {
			unit := got[u : u+8]
			allNew := bytes.Equal(unit, data[u:u+8])
			allOld := bytes.Equal(unit, make([]byte, 8))
			if !allNew && !allOld {
				t.Fatalf("seed %d: unit %d torn inside 8 bytes", seed, u)
			}
		}
		d.Recover()
	}
}

// TestCAS8CrashMayOrMayNotPersist: an armed CAS8 leaves either value, never
// garbage.
func TestCAS8Crash(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		d := New(4096, sim.ZeroCosts())
		ctx := sim.NewCtx(0, 1)
		d.Store8(ctx, 0, 111)
		d.ArmCrash(0, seed)
		d.CAS8(ctx, 0, 111, 222)
		d.Recover()
		v := d.Load8(0)
		if v != 111 && v != 222 {
			t.Fatalf("seed %d: CAS8 crash left %d", seed, v)
		}
	}
}

// TestTimelineBandwidthCap: enough concurrent traffic saturates the
// channels, capping aggregate throughput near channels/writePerByte.
func TestTimelineBandwidthCap(t *testing.T) {
	costs := sim.DefaultCosts()
	d := New(256<<20, costs)
	const workers = 16
	const opsPer = 200
	ctxs := make([]*sim.Ctx, workers)
	var wg sync.WaitGroup
	for i := range ctxs {
		ctxs[i] = sim.NewCtx(i, int64(i))
		wg.Add(1)
		go func(id int, ctx *sim.Ctx) {
			defer wg.Done()
			buf := make([]byte, 64<<10)
			base := int64(id) * (8 << 20)
			for j := 0; j < opsPer; j++ {
				d.WriteNT(ctx, buf, base+int64(j%64)*(64<<10))
			}
		}(i, ctxs[i])
	}
	wg.Wait()
	elapsed := sim.MaxTime(ctxs)
	bytesTotal := int64(workers * opsPer * (64 << 10))
	gbps := float64(bytesTotal) / float64(elapsed) // bytes per ns = GB/s
	// Aggregate cap = channels / writePerByte = 4 / 0.45 ~ 8.9 GB/s.
	cap := float64(costs.Channels) / costs.NVMWritePerByte
	if gbps > cap*1.15 {
		t.Fatalf("aggregate %.1f GB/s exceeds the %.1f GB/s device cap", gbps, cap)
	}
	if gbps < cap*0.5 {
		t.Fatalf("aggregate %.1f GB/s far below cap %.1f: contention model too pessimistic", gbps, cap)
	}
}
