package nvm

import (
	"testing"

	"mgsp/internal/sim"
)

// Per-context media-op attribution: every persistence-affecting operation is
// charged to the issuing context's tally, reads and temporal stores are not,
// and the totals add up to MediaOps, also across the power cut.
func TestWorkerOpAttribution(t *testing.T) {
	d := New(1<<20, sim.ZeroCosts())
	a := sim.NewCtx(3, 1)
	b := sim.NewCtx(7, 2)
	a.Tally, b.Tally = &sim.MediaTally{}, &sim.MediaTally{}

	buf := make([]byte, 64)
	d.WriteNT(a, buf, 0)
	d.WriteNT(a, buf, 64)
	d.Store8(a, 128, 42)
	d.Read(a, buf, 0)
	d.WriteNT(b, buf, 256)
	if !d.CAS8(b, 320, 0, 1) {
		t.Fatal("CAS8 failed on zeroed device")
	}
	d.Write(b, buf, 512) // temporal store: no media op until Flush
	if n := d.Flush(b, 512, 64); n == 0 {
		t.Fatal("Flush persisted nothing")
	}
	if got := a.Tally.Ops.Load(); got != 3 {
		t.Fatalf("ctx a ops = %d, want 3", got)
	}
	if got := b.Tally.Ops.Load(); got != 3 {
		t.Fatalf("ctx b ops = %d, want 3", got)
	}

	d.ArmCrash(1, 5)
	d.WriteNT(a, buf, 576) // survives
	d.WriteNT(b, buf, 640) // torn: the cut
	d.Store8(a, 704, 1)    // after the cut: overlay only
	if !d.Crashed() {
		t.Fatal("device did not crash at the armed fail point")
	}
	if sum, total := a.Tally.Ops.Load()+b.Tally.Ops.Load(), d.Stats().MediaOps.Load(); sum != total || total != 7 {
		t.Fatalf("tallied ops %d, MediaOps %d, want both 7", sum, total)
	}
}

// CrashInfo attributes the torn operation to the worker that issued it, and
// the OnCrash hook fires exactly once.
func TestCrashInfoAndHook(t *testing.T) {
	d := New(1<<20, sim.ZeroCosts())
	a := sim.NewCtx(5, 1)
	buf := make([]byte, 64)
	d.WriteNT(a, buf, 0)

	if op, w := d.CrashInfo(); op != -1 || w != -1 {
		t.Fatalf("CrashInfo before crash = (%d, %d), want (-1, -1)", op, w)
	}

	hooks := 0
	var hookOp int64
	var hookWorker int
	d.OnCrash(func(worker int, mediaOp int64) {
		hooks++
		hookWorker, hookOp = worker, mediaOp
	})
	d.ArmCrash(2, 99)

	d.WriteNT(a, buf, 64)  // survives: 1st media op since arming
	d.WriteNT(a, buf, 128) // survives: 2nd
	d.WriteNT(a, buf, 192) // torn: device-lifetime media op 4
	d.WriteNT(a, buf, 256) // after the cut: overlay only
	if !d.Crashed() {
		t.Fatal("device did not crash at the armed fail point")
	}
	op, w := d.CrashInfo()
	if w != 5 {
		t.Fatalf("crash worker = %d, want 5", w)
	}
	if op != 4 {
		t.Fatalf("crash media op = %d, want 4 (device-lifetime index)", op)
	}
	if hooks != 1 || hookWorker != w || hookOp != op {
		t.Fatalf("OnCrash fired %d times with (%d, %d), want once with (%d, %d)",
			hooks, hookWorker, hookOp, w, op)
	}

	d.Recover()
	if op2, w2 := d.CrashInfo(); op2 != op || w2 != w {
		t.Fatal("CrashInfo did not survive Recover")
	}
	d.ArmCrash(100, 1)
	if op3, w3 := d.CrashInfo(); op3 != -1 || w3 != -1 {
		t.Fatalf("CrashInfo after re-arm = (%d, %d), want (-1, -1)", op3, w3)
	}
}
