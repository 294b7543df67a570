package core

import (
	"strings"
	"testing"

	"mgsp/internal/nvm"
	"mgsp/internal/sim"
)

func TestInspectReportsStructures(t *testing.T) {
	dev := nvm.New(64<<20, sim.ZeroCosts())
	fs := MustNew(dev, DefaultOptions())
	ctx := sim.NewCtx(0, 1)
	f, _ := fs.Create(ctx, "alpha")
	f.WriteAt(ctx, make([]byte, 1<<20), 0)
	f.WriteAt(ctx, make([]byte, 512), 100)

	// Crash mid-op so a live metadata entry remains.
	dev.ArmCrash(2, 1)
	f.WriteAt(ctx, make([]byte, 4096), 8192)
	dev.Recover()

	report, err := Inspect(dev, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"alpha", "slot=0", "shadow-log records:", "metadata log:"} {
		if !strings.Contains(report, want) {
			t.Fatalf("report missing %q:\n%s", want, report)
		}
	}
	// Inspect must not modify the device: a second run is identical.
	report2, err := Inspect(dev, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if report != report2 {
		t.Fatal("Inspect is not read-only/deterministic")
	}
	// And Mount must still succeed afterwards.
	if _, err := Mount(sim.NewCtx(1, 1), dev, DefaultOptions()); err != nil {
		t.Fatalf("Mount after Inspect: %v", err)
	}
}

func TestInspectRejectsBadOptions(t *testing.T) {
	dev := nvm.New(4<<20, sim.ZeroCosts())
	bad := DefaultOptions()
	bad.Degree = 0
	if _, err := Inspect(dev, bad); err == nil {
		t.Fatal("invalid options accepted")
	}
}
