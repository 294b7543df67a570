package bench

import (
	"mgsp/internal/core"
	"mgsp/internal/nvm"
	"mgsp/internal/sim"
)

// Cleaner measures what the background cleaner & checkpoint subsystem buys
// on a sustained random-overwrite workload (no experiment in the paper
// corresponds to this — the paper's logs only drain at file close): the
// steady-state shadow-log footprint, the post-crash Mount time, how much of
// the metadata log the recovery actually replayed versus skipped as
// pre-checkpoint, and the background media traffic the cleaner spent to get
// there.
func Cleaner(sc Scale) (*Table, error) {
	t := NewTable("cleaner", "background cleaner: sustained overwrite, then crash recovery", "mixed",
		[]string{"log-blocks", "recovery-ms", "replayed", "skipped", "checkpoints", "bg-MiB"},
		[]string{"cleaner-off", "cleaner-on"})
	for i, on := range []bool{false, true} {
		r, err := runSustained(sc.FileSize, sc.Ops*4, 1, on)
		if err != nil {
			return nil, err
		}
		t.Cells[i][0] = float64(r.logBlocks)
		t.Cells[i][1] = r.recoveryMs
		t.Cells[i][2] = float64(r.replayed)
		t.Cells[i][3] = float64(r.skipped)
		t.Cells[i][4] = float64(r.checkpoints)
		t.Cells[i][5] = r.bgMiB
	}
	t.Notes = append(t.Notes, "log-blocks: 4 KiB shadow-log blocks held at steady state (the cleaner bounds this)")
	t.Notes = append(t.Notes, "recovery-ms: virtual Mount time after a crash (the checkpoint bounds the directory scan and skips pre-epoch replay; Mount writes no logs back)")
	return t, nil
}

// cleanerOpts is the configuration the cleaner rows run with: a pass every
// 200 µs of virtual time, at most 4096 blocks reclaimed per pass.
func cleanerOpts() core.Options {
	o := core.DefaultOptions()
	o.CleanerInterval = 200_000
	o.CleanerBudget = 4096
	return o
}

type sustainedResult struct {
	logBlocks   int64 // steady-state shadow-log footprint before the crash
	recoveryMs  float64
	replayed    int64
	skipped     int64
	checkpoints int64
	bgMiB       float64 // media writes attributed to the cleaner's context
}

// runSustained drives ops random 4 KiB overwrites (the cleaner running
// cooperatively when enabled), samples the steady-state log footprint, then
// crashes mid-write and measures recovery.
func runSustained(fileSize int64, ops int, seed int64, cleanerOn bool) (sustainedResult, error) {
	var r sustainedResult
	opts := core.DefaultOptions()
	if cleanerOn {
		opts = cleanerOpts()
	}
	dev := nvm.New(devSizeFor(fileSize), sim.DefaultCosts())
	fs := core.MustNew(dev, opts)
	ctx := sim.NewCtx(0, seed)
	f, err := fs.Create(ctx, "data")
	if err != nil {
		return r, err
	}
	chunk := make([]byte, 1<<20)
	for off := int64(0); off < fileSize; off += 1 << 20 {
		if _, err := f.WriteAt(ctx, chunk, off); err != nil {
			return r, err
		}
	}

	// Sustained-overwrite phase with a 90/10 hot/cold skew (the shape
	// cleaners exist for): the cold 90 % of the file goes quiet and its fill
	// logs become reclaimable, while the hot 10 % churns. This is where the
	// cleaner-off log grows without bound and the cleaner-on log reaches a
	// steady state.
	buf := make([]byte, 4096)
	hotPages := fileSize / 10 / 4096
	randOff := func() int64 {
		if ctx.Rand.Intn(10) != 0 {
			return ctx.Rand.Int63n(hotPages) * 4096
		}
		return (hotPages + ctx.Rand.Int63n(fileSize/4096-hotPages)) * 4096
	}
	for i := 0; i < ops; i++ {
		if _, err := f.WriteAt(ctx, buf, randOff()); err != nil {
			return r, err
		}
	}
	r.logBlocks = fs.LogBlocks()
	if c := fs.Cleaner(); c != nil {
		r.checkpoints = c.Stats().Checkpoints
		r.bgMiB = float64(c.MediaWriteBytes()) / (1 << 20)
	}

	// Crash a short way into continued load, then recover.
	dev.ArmCrash(500, seed*31+7)
	for !dev.Crashed() {
		if _, err := f.WriteAt(ctx, buf, randOff()); err != nil {
			break
		}
	}
	dev.DisarmCrash()
	dev.Recover()

	rctx := sim.NewCtx(1, seed)
	fs2, err := core.Mount(rctx, dev, opts)
	if err != nil {
		return r, err
	}
	r.recoveryMs = float64(rctx.Now()) / 1e6
	r.replayed = fs2.Stats().EntriesReplayed.Load()
	r.skipped = fs2.Stats().EntriesSkipped.Load()
	return r, nil
}
