package nvm

import (
	"bytes"
	"testing"
	"testing/quick"

	"mgsp/internal/sim"
)

func newTestDevice(size int64) (*Device, *sim.Ctx) {
	return New(size, sim.ZeroCosts()), sim.NewCtx(0, 1)
}

func TestWriteReadRoundTrip(t *testing.T) {
	d, ctx := newTestDevice(4096)
	data := []byte("hello, persistent world")
	d.Write(ctx, data, 100)
	buf := make([]byte, len(data))
	d.Read(ctx, buf, 100)
	if !bytes.Equal(buf, data) {
		t.Fatalf("read %q, want %q", buf, data)
	}
}

func TestTemporalWriteIsVolatileUntilFlushed(t *testing.T) {
	d, ctx := newTestDevice(4096)
	data := []byte("volatile until flushed")
	d.Write(ctx, data, 0)

	if got := d.InspectDurable(0, len(data)); bytes.Equal(got, data) {
		t.Fatal("temporal write reached durable image before flush")
	}
	d.Recover()
	buf := make([]byte, len(data))
	d.Read(ctx, buf, 0)
	if bytes.Equal(buf, data) {
		t.Fatal("unflushed write survived Recover")
	}

	d.Write(ctx, data, 0)
	d.Flush(ctx, 0, len(data))
	if got := d.InspectDurable(0, len(data)); !bytes.Equal(got, data) {
		t.Fatalf("flushed write missing from durable image: %q", got)
	}
	d.Recover()
	d.Read(ctx, buf, 0)
	if !bytes.Equal(buf, data) {
		t.Fatal("flushed write lost after Recover")
	}
}

func TestWriteNTIsImmediatelyDurable(t *testing.T) {
	d, ctx := newTestDevice(4096)
	data := []byte("non-temporal store")
	d.WriteNT(ctx, data, 256)
	if got := d.InspectDurable(256, len(data)); !bytes.Equal(got, data) {
		t.Fatalf("WriteNT not durable: %q", got)
	}
}

func TestFlushOnlyDirtyLines(t *testing.T) {
	d, ctx := newTestDevice(4096)
	d.Write(ctx, make([]byte, 64), 0) // dirty exactly one line
	before := d.Stats().MediaWriteBytes.Load()
	n := d.Flush(ctx, 0, 4096)
	if n != 64 {
		t.Fatalf("flushed %d bytes, want 64 (only dirty lines)", n)
	}
	if got := d.Stats().MediaWriteBytes.Load() - before; got != 64 {
		t.Fatalf("media bytes = %d, want 64", got)
	}
	// Second flush has nothing to do.
	if n := d.Flush(ctx, 0, 4096); n != 0 {
		t.Fatalf("re-flush wrote %d bytes, want 0", n)
	}
}

func TestStore8AtomicityAndDurability(t *testing.T) {
	d, ctx := newTestDevice(4096)
	d.Store8(ctx, 64, 0xdeadbeefcafef00d)
	if got := d.Load8(64); got != 0xdeadbeefcafef00d {
		t.Fatalf("Load8 = %#x", got)
	}
	d.Recover()
	if got := d.Load8(64); got != 0xdeadbeefcafef00d {
		t.Fatalf("Store8 not durable: %#x", got)
	}
}

func TestCAS8(t *testing.T) {
	d, ctx := newTestDevice(4096)
	d.Store8(ctx, 0, 10)
	if d.CAS8(ctx, 0, 11, 20) {
		t.Fatal("CAS with wrong expected value succeeded")
	}
	if !d.CAS8(ctx, 0, 10, 20) {
		t.Fatal("CAS with right expected value failed")
	}
	d.Recover()
	if got := d.Load8(0); got != 20 {
		t.Fatalf("CAS result not durable: %d", got)
	}
}

func TestUnaligned8ByteAccessPanics(t *testing.T) {
	d, ctx := newTestDevice(4096)
	defer func() {
		if recover() == nil {
			t.Fatal("unaligned Store8 did not panic")
		}
	}()
	d.Store8(ctx, 3, 1)
}

func TestOutOfRangePanics(t *testing.T) {
	d, ctx := newTestDevice(4096)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range write did not panic")
		}
	}()
	d.Write(ctx, make([]byte, 10), 4090)
}

func TestCrashInjectionTearsInFlightOp(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		d, ctx := newTestDevice(4096)
		pattern := bytes.Repeat([]byte{0xAB}, 256)
		d.ArmCrash(0, seed) // crash on the very next media op
		d.WriteNT(ctx, pattern, 0)
		if !d.Crashed() {
			t.Fatalf("seed %d: device not marked crashed", seed)
		}
		// The torn op completes in the overlay only; the durable image must
		// hold an 8-byte-granular prefix of the write.
		if !bytes.Equal(d.Inspect(0, 256), pattern) {
			t.Fatalf("seed %d: torn op did not complete in the overlay", seed)
		}
		got := d.InspectDurable(0, 256)
		torn := 0
		for torn < 256 && got[torn] == 0xAB {
			torn++
		}
		if torn%8 != 0 {
			t.Fatalf("seed %d: tear point %d not 8-byte aligned", seed, torn)
		}
		for _, b := range got[torn:] {
			if b != 0 {
				t.Fatalf("seed %d: non-prefix bytes persisted", seed)
			}
		}
		d.Recover()
		if d.Crashed() {
			t.Fatal("Recover did not clear crashed state")
		}
		// Post-recovery the volatile view equals the durable image.
		buf := make([]byte, 256)
		d.Read(ctx, buf, 0)
		if !bytes.Equal(buf, got) {
			t.Fatalf("seed %d: post-recovery view differs from durable image", seed)
		}
	}
}

func TestCrashAfterNOps(t *testing.T) {
	d, ctx := newTestDevice(4096)
	d.ArmCrash(3, 7) // allow exactly 3 media ops
	d.WriteNT(ctx, []byte{1}, 0)
	d.WriteNT(ctx, []byte{2}, 64)
	d.WriteNT(ctx, []byte{3}, 128)
	if d.Crashed() {
		t.Fatal("device crashed before the fail point")
	}
	d.WriteNT(ctx, []byte{4}, 192)
	if !d.Crashed() {
		t.Fatal("device should have crashed on op 4")
	}
}

// TestOpsAfterCutChangeOnlyOverlay: after the power cut every op still runs
// to completion, but only against the volatile overlay. The durable image
// and every media counter stay frozen at the cut, and Recover brings back
// the frozen image.
func TestOpsAfterCutChangeOnlyOverlay(t *testing.T) {
	d, ctx := newTestDevice(4096)
	d.Store8(ctx, 512, 7)
	d.ArmCrash(0, 1)
	d.WriteNT(ctx, []byte{1}, 0)
	if !d.Crashed() {
		t.Fatal("armed op did not cut power")
	}
	frozen := d.InspectDurable(0, 4096)
	st := d.Stats()
	counters := func() [5]int64 {
		return [5]int64{st.MediaWriteBytes.Load(), st.MediaReadBytes.Load(),
			st.Flushes.Load(), st.Fences.Load(), st.MediaOps.Load()}
	}
	before := counters()

	d.Write(ctx, bytes.Repeat([]byte{2}, 64), 64)
	d.Flush(ctx, 64, 64)
	d.WriteNT(ctx, bytes.Repeat([]byte{3}, 64), 128)
	d.Store8(ctx, 256, 4)
	if !d.CAS8(ctx, 512, 7, 5) || d.CAS8(ctx, 512, 7, 6) {
		t.Fatal("CAS8 after the cut lost its compare-and-swap semantics")
	}
	d.Persist(ctx, 0, 4096)
	buf := make([]byte, 64)
	d.Read(ctx, buf, 128)

	if !bytes.Equal(buf, bytes.Repeat([]byte{3}, 64)) || d.Inspect(64, 1)[0] != 2 ||
		d.Load8(256) != 4 || d.Load8(512) != 5 {
		t.Fatal("ops after the cut did not reach the overlay")
	}
	if !bytes.Equal(d.InspectDurable(0, 4096), frozen) {
		t.Fatal("ops after the cut changed the durable image")
	}
	if got := counters(); got != before {
		t.Fatalf("media counters moved after the cut: %v -> %v", before, got)
	}
	d.Recover()
	if !bytes.Equal(d.Inspect(0, 4096), frozen) {
		t.Fatal("Recover did not reset the overlay to the frozen image")
	}
}

// TestOnCrashRunsBeforeCut pins the ordering rule harnesses build on:
// OnCrash runs after the tear has reached the durable image but before the
// cut is published, so an op that returns after the callback saw the cut.
func TestOnCrashRunsBeforeCut(t *testing.T) {
	pattern := bytes.Repeat([]byte{0xAB}, 256)
	tornSeen := false
	for seed := int64(0); seed < 20; seed++ {
		d, ctx := newTestDevice(4096)
		var inside []byte
		live := false
		d.OnCrash(func(int, int64) {
			live = !d.Crashed()
			inside = d.InspectDurable(0, 256)
		})
		d.ArmCrash(0, seed)
		d.WriteNT(ctx, pattern, 0)
		if !live {
			t.Fatalf("seed %d: Crashed() was already true inside OnCrash", seed)
		}
		if !bytes.Equal(inside, d.InspectDurable(0, 256)) {
			t.Fatalf("seed %d: OnCrash ran before the tear reached the durable image", seed)
		}
		tornSeen = tornSeen || inside[0] == 0xAB
	}
	if !tornSeen {
		t.Fatal("no seed persisted a nonempty torn prefix; the check is vacuous")
	}
}

func TestVirtualTimeCharges(t *testing.T) {
	costs := sim.DefaultCosts()
	d := New(1<<20, costs)
	ctx := sim.NewCtx(0, 1)

	t0 := ctx.Now()
	d.Read(ctx, make([]byte, 4096), 0)
	readCost := ctx.Now() - t0
	if readCost < costs.NVMReadLat {
		t.Fatalf("read charged %dns, want >= latency %dns", readCost, costs.NVMReadLat)
	}

	t0 = ctx.Now()
	d.WriteNT(ctx, make([]byte, 4096), 0)
	writeCost := ctx.Now() - t0
	if writeCost <= readCost {
		t.Fatalf("4K write (%dns) must cost more than 4K read (%dns) on Optane-like media", writeCost, readCost)
	}

	t0 = ctx.Now()
	d.Fence(ctx)
	if got := ctx.Now() - t0; got != costs.Fence {
		t.Fatalf("fence charged %dns, want %dns", got, costs.Fence)
	}
}

func TestStatsCounters(t *testing.T) {
	d, ctx := newTestDevice(1 << 16)
	d.WriteNT(ctx, make([]byte, 1024), 0)
	if got := d.Stats().MediaWriteBytes.Load(); got != 1024 {
		t.Fatalf("MediaWriteBytes = %d, want 1024", got)
	}
	d.Read(ctx, make([]byte, 100), 0)
	if got := d.Stats().MediaReadBytes.Load(); got != 100 {
		t.Fatalf("MediaReadBytes = %d, want 100", got)
	}
	d.Fence(ctx)
	if got := d.Stats().Fences.Load(); got != 1 {
		t.Fatalf("Fences = %d, want 1", got)
	}
	d.ResetStats()
	if d.Stats().MediaWriteBytes.Load() != 0 || d.Stats().MediaReadBytes.Load() != 0 {
		t.Fatal("ResetStats did not zero counters")
	}
}

// TestDurabilityProperty: any flushed write survives Recover, any
// unflushed write does not leak into the durable image beyond line sharing.
func TestDurabilityProperty(t *testing.T) {
	f := func(off uint16, sz uint8, fill byte, doFlush bool) bool {
		d, ctx := newTestDevice(1 << 17)
		o := int64(off)
		n := int(sz)%512 + 1
		data := bytes.Repeat([]byte{fill | 1}, n) // never zero
		d.Write(ctx, data, o)
		if doFlush {
			d.Persist(ctx, o, n)
		}
		d.Recover()
		buf := make([]byte, n)
		d.Read(ctx, buf, o)
		if doFlush {
			return bytes.Equal(buf, data)
		}
		return !bytes.Equal(buf, data) || fill|1 == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPersistIsFlushPlusFence(t *testing.T) {
	d, ctx := newTestDevice(4096)
	d.Write(ctx, []byte{42}, 0)
	d.Persist(ctx, 0, 1)
	if d.Stats().Fences.Load() != 1 {
		t.Fatal("Persist must fence")
	}
	if got := d.InspectDurable(0, 1); got[0] != 42 {
		t.Fatal("Persist must flush")
	}
}
