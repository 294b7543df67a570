package nvm

import (
	"testing"

	"mgsp/internal/sim"
)

// Per-worker media-op attribution: every persistence-affecting operation is
// charged to the issuing Ctx.ID and the totals add up to MediaOps.
func TestWorkerOpAttribution(t *testing.T) {
	d := New(1<<20, sim.ZeroCosts())
	a := sim.NewCtx(3, 1)
	b := sim.NewCtx(7, 2)

	buf := make([]byte, 64)
	d.WriteNT(a, buf, 0)
	d.WriteNT(a, buf, 64)
	d.Store8(a, 128, 42)
	d.WriteNT(b, buf, 256)
	if !d.CAS8(b, 320, 0, 1) {
		t.Fatal("CAS8 failed on zeroed device")
	}
	d.Write(b, buf, 512) // temporal store: no media op until Flush
	if n := d.Flush(b, 512, 64); n == 0 {
		t.Fatal("Flush persisted nothing")
	}

	st := d.Stats()
	if got := st.WorkerOps(3); got != 3 {
		t.Fatalf("worker 3 ops = %d, want 3", got)
	}
	if got := st.WorkerOps(7); got != 3 {
		t.Fatalf("worker 7 ops = %d, want 3", got)
	}
	if got := st.WorkerOps(99); got != 0 {
		t.Fatalf("unknown worker ops = %d, want 0", got)
	}
	var sum int64
	for _, n := range st.Workers() {
		sum += n
	}
	if total := st.MediaOps.Load(); sum != total {
		t.Fatalf("per-worker sum %d != MediaOps %d", sum, total)
	}

	d.ResetStats()
	if len(d.Stats().Workers()) != 0 {
		t.Fatal("ResetStats did not clear worker attribution")
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
