package torture

import (
	"errors"
	"reflect"
	"testing"

	"mgsp/internal/core"
	"mgsp/internal/libnvmmio"
	"mgsp/internal/nova"
	"mgsp/internal/nvm"
	"mgsp/internal/sim"
	"mgsp/internal/vfs"
)

const scriptFileSize = 96 * 1024

// mgspScript is a script config over MGSP with opts.
func mgspScript(opts core.Options) ScriptConfig {
	return ScriptConfig{
		Format:   func(dev *nvm.Device) (vfs.FS, error) { return core.New(dev, opts) },
		Mount:    func(ctx *sim.Ctx, dev *nvm.Device) (vfs.FS, error) { return core.Mount(ctx, dev, opts) },
		FileSize: scriptFileSize,
	}
}

// scriptSweep runs the sweep and requires a clean verdict, at least
// minCrashes crash points and a final run that outlives the script. Each
// floor is the sweep's crash-point count when it was set; if a change to the
// subject's media-op count drops a sweep below it, shrink the stride rather
// than the floor.
func scriptSweep(t *testing.T, cfg ScriptConfig, stride int64, minCrashes int) {
	t.Helper()
	res, err := ScriptSweep(cfg, stride)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("%s", v)
	}
	t.Logf("%d crash points, %d completed", res.Crashed, res.Completed)
	if res.Crashed < minCrashes || res.Completed != 1 {
		t.Fatalf("sweep too shallow: %+v", res)
	}
}

func TestScriptSweepMGSP(t *testing.T) {
	cfg := mgspScript(core.DefaultOptions())
	cfg.Ops, cfg.MaxWrite, cfg.Seed = 40, 20000, 11
	scriptSweep(t, cfg, 7, 76)
}

func TestScriptSweepMGSPDegree4(t *testing.T) {
	opts := core.DefaultOptions()
	opts.Degree = 4
	cfg := mgspScript(opts)
	cfg.Ops, cfg.MaxWrite, cfg.Seed = 30, 30000, 23
	scriptSweep(t, cfg, 11, 43)
}

// TestScriptSweepMGSPCleanerCheckpoint crashes at every stride-th media op
// while the background cleaner runs aggressively (interval 1 → a pass after
// nearly every op, so crashes land mid-cleaning and mid-checkpoint). The
// AltMount re-recovers each crashed image with the checkpoint record
// invalidated and the sweep asserts identical contents: the checkpoint fast
// path must be a pure optimization.
func TestScriptSweepMGSPCleanerCheckpoint(t *testing.T) {
	opts := core.DefaultOptions()
	opts.CleanerInterval = 1
	cfg := mgspScript(opts)
	cfg.AltMount = func(ctx *sim.Ctx, dev *nvm.Device) (vfs.FS, error) {
		core.DropCheckpoint(ctx, dev)
		return core.Mount(ctx, dev, opts)
	}
	cfg.Ops, cfg.MaxWrite, cfg.Seed = 30, 20000, 29
	scriptSweep(t, cfg, 13, 59)
}

func TestScriptSweepNOVA(t *testing.T) {
	cfg := ScriptConfig{
		Format:   func(dev *nvm.Device) (vfs.FS, error) { return nova.New(dev), nil },
		Mount:    func(ctx *sim.Ctx, dev *nvm.Device) (vfs.FS, error) { return nova.Mount(ctx, dev) },
		FileSize: scriptFileSize,
		Ops:      40,
		MaxWrite: 20000,
		Seed:     13,
	}
	scriptSweep(t, cfg, 9, 23)
}

func TestScriptSweepLibnvmmio(t *testing.T) {
	cfg := ScriptConfig{
		Format:     func(dev *nvm.Device) (vfs.FS, error) { return libnvmmio.New(dev), nil },
		Mount:      func(ctx *sim.Ctx, dev *nvm.Device) (vfs.FS, error) { return libnvmmio.Mount(ctx, dev) },
		FileSize:   scriptFileSize,
		Ops:        40,
		MaxWrite:   20000,
		FsyncEvery: 4,
		Seed:       17,
	}
	scriptSweep(t, cfg, 9, 74)
}

// TestScriptSweepSnapshot crashes at every 6th media op across the full
// snapshot lifecycle (create → first CoW write → steady CoW → drop) and
// asserts the recovered image is never torn: live file at an op boundary,
// snapshot (when live) serving the exact pre-snapshot bytes, gone once the
// drop committed, and a clean block audit.
func TestScriptSweepSnapshot(t *testing.T) {
	cfg := mgspScript(core.DefaultOptions())
	cfg.Ops, cfg.SnapAt, cfg.DropAt, cfg.MaxWrite, cfg.Seed = 26, 6, 20, 20000, 41
	scriptSweep(t, cfg, 6, 60)
}

// TestScriptSweepSnapshotDegree4 repeats the sweep with a degree-4 tree so
// crash points land inside multi-entry chained CoW commits (more than
// wideEntrySlots slots per write).
func TestScriptSweepSnapshotDegree4(t *testing.T) {
	opts := core.DefaultOptions()
	opts.Degree = 4
	cfg := mgspScript(opts)
	cfg.Ops, cfg.SnapAt, cfg.DropAt, cfg.MaxWrite, cfg.Seed = 18, 4, 14, 30000, 43
	scriptSweep(t, cfg, 9, 40)
}

// TestScriptDeterminism: the same config yields the same script, and the
// fsync, snapshot and drop land where the config puts them.
func TestScriptDeterminism(t *testing.T) {
	cfg := ScriptConfig{FileSize: 4096 * 10, Ops: 20, MaxWrite: 1000, FsyncEvery: 3, SnapAt: 5, DropAt: 9, Seed: 5}
	a, b := cfg.script(), cfg.script()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same config, different scripts")
	}
	var kinds []opKind
	for _, o := range a {
		if o.kind != opWrite {
			kinds = append(kinds, o.kind)
		}
	}
	want := []opKind{opFsync, opSnap, opFsync, opFsync, opDrop, opFsync, opFsync, opFsync}
	if !reflect.DeepEqual(kinds, want) {
		t.Fatalf("non-write ops %v, want %v", kinds, want)
	}
}

// failingFS wraps a file system so that its failAt-th WriteAt, counted
// across every handle, returns an error instead of writing.
type failingFS struct {
	vfs.FS
	failAt, writes int
}

type failingFile struct {
	vfs.File
	fs *failingFS
}

var errInjected = errors.New("injected write failure")

func (f *failingFS) Create(ctx *sim.Ctx, name string) (vfs.File, error) {
	h, err := f.FS.Create(ctx, name)
	return &failingFile{File: h, fs: f}, err
}

func (f *failingFile) WriteAt(ctx *sim.Ctx, p []byte, off int64) (int, error) {
	if f.fs.writes++; f.fs.writes == f.fs.failAt {
		return 0, errInjected
	}
	return f.File.WriteAt(ctx, p, off)
}

// TestScriptSweepReportsOpError: a write that fails without a crash ends
// the run early, and the sweep must report it as an op-error violation — not
// as a workload that completed cleanly.
func TestScriptSweepReportsOpError(t *testing.T) {
	cfg := mgspScript(core.DefaultOptions())
	cfg.Format = func(dev *nvm.Device) (vfs.FS, error) {
		fs, err := core.New(dev, core.DefaultOptions())
		// Write 1 is the test bed's layout; fail the script's fifth write.
		return &failingFS{FS: fs, failAt: 6}, err
	}
	cfg.Ops, cfg.MaxWrite, cfg.Seed = 10, 20000, 11
	res, err := ScriptSweep(cfg, 50)
	if err != nil {
		t.Fatal(err)
	}
	opErrors := 0
	for _, v := range res.Violations {
		if v.Kind != "op-error" {
			t.Errorf("unexpected violation: %s", v)
			continue
		}
		if opErrors++; opErrors == 1 {
			t.Logf("%s", v)
		}
	}
	if opErrors == 0 {
		t.Fatalf("failed write went unreported: %+v", res)
	}
}
