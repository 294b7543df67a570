package core

import (
	"testing"

	"mgsp/internal/nvm"
	"mgsp/internal/sim"
)

// waPhase runs `ops` aligned 4 KiB overwrites of the same block and returns
// the media/user byte ratio of just that phase, measured through the obs
// registry (the same wa.ratio derivation mgspbench reports, but as a diff so
// setup traffic is excluded).
func waPhase(t *testing.T, fs *FS, ctx *sim.Ctx, h interface {
	WriteAt(*sim.Ctx, []byte, int64) (int, error)
}, ops int) float64 {
	t.Helper()
	before := fs.Obs().Snapshot()
	buf := make([]byte, 4096)
	for i := 0; i < ops; i++ {
		buf[0] = byte(i)
		if _, err := h.WriteAt(ctx, buf, 0); err != nil {
			t.Fatal(err)
		}
	}
	d := fs.Obs().Snapshot().Diff(before)
	user := d.Values["core.user_write_bytes"]
	if user == 0 {
		t.Fatal("no user bytes recorded")
	}
	return d.Values["nvm.media_write_bytes"] / user
}

// TestWriteAmplificationOverwriteBound is the paper's Table II invariant as
// a property test: repeated aligned 4 KiB overwrites with no snapshot pinned
// ride the shadow-toggle fast path, so media bytes stay within 2x of user
// bytes (the true figure is ~1.02: 4096 data + one 64-byte log entry + the
// 8-byte word flip). Taking a snapshot forces copy-on-write — relocation
// writes, pin records, and wide log-swap entries — so the per-phase ratio
// must strictly rise.
func TestWriteAmplificationOverwriteBound(t *testing.T) {
	fs, ctx := newTestFS(DefaultOptions())
	h, err := fs.Create(ctx, "wa")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close(ctx)

	// Warm up: first write allocates the tree path, record, and log block.
	if _, err := h.WriteAt(ctx, make([]byte, 4096), 0); err != nil {
		t.Fatal(err)
	}

	const ops = 200
	plain := waPhase(t, fs, ctx, h, ops)
	if plain > 2.0 {
		t.Fatalf("steady-state overwrite WA = %.3f, want <= 2.0", plain)
	}

	if _, err := fs.Snapshot(ctx, "wa"); err != nil {
		t.Fatal(err)
	}
	cow := waPhase(t, fs, ctx, h, ops)
	if cow <= plain {
		t.Fatalf("post-snapshot WA = %.3f, want > plain %.3f (CoW must cost more)", cow, plain)
	}
	if fs.Stats().SnapshotCoWRewrites.Load() == 0 {
		t.Fatal("snapshot phase never took the CoW path")
	}

	// The registry's live wa.ratio agrees with a manual recomputation.
	s := fs.Obs().Snapshot()
	want := s.Values["nvm.media_write_bytes"] / s.Values["core.user_write_bytes"]
	if got := s.Values["wa.ratio"]; got != want {
		t.Fatalf("wa.ratio = %v, want %v", got, want)
	}
}

// TestWriteAmplificationMultiBlock extends the bound across a larger working
// set: sequential then random-ish aligned overwrites over 64 blocks.
func TestWriteAmplificationMultiBlock(t *testing.T) {
	fs, ctx := newTestFS(DefaultOptions())
	h, err := fs.Create(ctx, "wa2")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close(ctx)
	const blocks = 64
	buf := make([]byte, 4096)
	for b := 0; b < blocks; b++ {
		if _, err := h.WriteAt(ctx, buf, int64(b)*4096); err != nil {
			t.Fatal(err)
		}
	}
	before := fs.Obs().Snapshot()
	for i := 0; i < 4*blocks; i++ {
		buf[0] = byte(i)
		off := int64(i*37%blocks) * 4096
		if _, err := h.WriteAt(ctx, buf, off); err != nil {
			t.Fatal(err)
		}
	}
	d := fs.Obs().Snapshot().Diff(before)
	ratio := d.Values["nvm.media_write_bytes"] / d.Values["core.user_write_bytes"]
	if ratio > 2.0 {
		t.Fatalf("multi-block overwrite WA = %.3f, want <= 2.0", ratio)
	}
}

// TestObsWiredThroughFS sanity-checks the probe plumbing end to end: one
// write/read/fsync must populate the op histograms, the trace ring, and the
// nvm counters registered under the FS registry.
func TestObsWiredThroughFS(t *testing.T) {
	fs, ctx := newTestFS(DefaultOptions())
	h, err := fs.Create(ctx, "t")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close(ctx)
	if _, err := h.WriteAt(ctx, []byte("hello"), 0); err != nil {
		t.Fatal(err)
	}
	p := make([]byte, 5)
	if _, err := h.ReadAt(ctx, p, 0); err != nil {
		t.Fatal(err)
	}
	if err := h.Fsync(ctx); err != nil {
		t.Fatal(err)
	}
	s := fs.Obs().Snapshot()
	for _, name := range []string{"fs.write_ns", "fs.read_ns", "fs.fsync_ns"} {
		if s.Hists[name].Count == 0 {
			t.Errorf("histogram %q never observed", name)
		}
	}
	if s.Hists["mlog.probe_distance"].Count == 0 {
		t.Error("mlog.probe_distance never observed")
	}
	if s.Values["core.writes"] != 1 || s.Values["core.user_write_bytes"] != 5 {
		t.Errorf("core counters: writes=%v user_write_bytes=%v",
			s.Values["core.writes"], s.Values["core.user_write_bytes"])
	}
	if s.Values["nvm.media_write_bytes"] == 0 {
		t.Error("nvm counters not registered")
	}
	ops := map[string]bool{}
	for _, e := range fs.TraceRing().Events() {
		ops[e.Op] = true
	}
	for _, op := range []string{"write", "read", "fsync"} {
		if !ops[op] {
			t.Errorf("trace ring missing op %q (have %v)", op, ops)
		}
	}
}

// TestCleanerPolicyRegistered: enabling the cleaner must publish its
// scheduling state (adaptive interval) into the FS registry.
func TestCleanerPolicyRegistered(t *testing.T) {
	opts := DefaultOptions()
	opts.CleanerInterval = 1 << 20
	fs, _ := newTestFS(opts)
	s := fs.Obs().Snapshot()
	if got := s.Values["cleaner.interval_ns"]; got != float64(opts.CleanerInterval) {
		t.Fatalf("cleaner.interval_ns = %v, want %v", got, opts.CleanerInterval)
	}
	if _, ok := s.Values["cleaner.contended"]; !ok {
		t.Fatal("cleaner.contended not registered")
	}
}

// TestMountObservesRecovery: a crash + Mount must time the recovery and drop
// an OpRecovery trace event on the NEW fs.
func TestMountObservesRecovery(t *testing.T) {
	dev := nvm.New(128<<20, sim.ZeroCosts())
	fs := MustNew(dev, DefaultOptions())
	ctx := sim.NewCtx(0, 1)
	h, err := fs.Create(ctx, "r")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.WriteAt(ctx, make([]byte, 8192), 0); err != nil {
		t.Fatal(err)
	}
	dev.Recover() // simulate power loss: only the durable image survives
	dev.Recover()
	fs2, err := Mount(sim.NewCtx(0, 2), dev, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if fs2.Obs().Snapshot().Hists["recovery.mount_ns"].Count != 1 {
		t.Error("recovery.mount_ns not observed on Mount")
	}
	found := false
	for _, e := range fs2.TraceRing().Events() {
		if e.Op == "recovery" {
			found = true
		}
	}
	if !found {
		t.Error("no recovery event in the mounted fs's trace ring")
	}
}
