package torture

// Script mode: one writer replays a fixed script of writes at arbitrary
// offsets and lengths — with an fsync every few writes, and on MGSP a
// snapshot and its drop — against any vfs.FS, crashing at every stride-th
// media op. Unaligned byte ranges and Libnvmmio's sync-level guarantee are
// beyond the region oracle, so script runs are checked by the prefix oracle:
// the recovered file must be a state the subject's vfs.ConsistencyLevel
// admits after the completed script prefix.

import (
	"bytes"
	"fmt"

	"mgsp/internal/core"
	"mgsp/internal/nvm"
	"mgsp/internal/sim"
	"mgsp/internal/vfs"
)

// ScriptConfig describes one scripted sweep subject and its script.
type ScriptConfig struct {
	// Format builds the file system under test on a fresh device; Mount
	// recovers it after a crash.
	Format func(dev *nvm.Device) (vfs.FS, error)
	Mount  Mounter
	// AltMount, when set, recovers a copy of each crashed image through an
	// alternate path (e.g. with the checkpoint record invalidated), and the
	// two recoveries must read identical file contents: the path AltMount
	// skips is then a pure optimization.
	AltMount Mounter

	FileSize   int64 // the dense, pre-zeroed file the script writes into
	Ops        int   // writes in the script
	MaxWrite   int   // each write covers 1..MaxWrite bytes
	FsyncEvery int   // an fsync before every FsyncEvery-th write (0 = none)
	// SnapAt and DropAt (MGSP only) snapshot the file before write SnapAt
	// and drop that snapshot before write DropAt (0 = none).
	SnapAt, DropAt int
	Seed           int64
}

// scriptOp is one script step: a write of n bytes of pat at off, or an
// fsync, snapshot or drop.
type scriptOp struct {
	kind opKind
	off  int64
	n    int
	pat  byte
}

// script generates the workload, a pure function of the config.
func (cfg ScriptConfig) script() []scriptOp {
	rng := sim.NewCtx(0, cfg.Seed).Rand
	var ops []scriptOp
	for i := 0; i < cfg.Ops; i++ {
		if cfg.FsyncEvery > 0 && i > 0 && i%cfg.FsyncEvery == 0 {
			ops = append(ops, scriptOp{kind: opFsync})
		}
		if cfg.SnapAt > 0 && i == cfg.SnapAt {
			ops = append(ops, scriptOp{kind: opSnap})
		}
		if cfg.DropAt > 0 && i == cfg.DropAt {
			ops = append(ops, scriptOp{kind: opDrop})
		}
		n := 1 + rng.Intn(cfg.MaxWrite)
		ops = append(ops, scriptOp{
			kind: opWrite,
			off:  rng.Int63n(cfg.FileSize - int64(cfg.MaxWrite)),
			n:    n,
			pat:  byte(i%255 + 1),
		})
	}
	return ops
}

func (cfg ScriptConfig) reproLine(crashAt int64) string {
	return fmt.Sprintf("go test ./internal/torture -run 'TestScriptSweep' (seed=%d ops=%d crash=%d)",
		cfg.Seed, cfg.Ops, crashAt)
}

// ScriptSweep runs the script once per crash index 1, 1+stride, … until a
// run outlives it, checking the prefix oracle after every recovery and on
// the final, completed run.
func ScriptSweep(cfg ScriptConfig, stride int64) (*SweepResult, error) {
	if cfg.FileSize <= int64(cfg.MaxWrite) || cfg.MaxWrite < 1 {
		return nil, fmt.Errorf("torture: script writes of up to %d bytes need a larger file than %d", cfg.MaxWrite, cfg.FileSize)
	}
	script := cfg.script()
	return strided(stride, func(_ int, crashAt int64) (*Result, error) {
		return runScript(cfg, script, crashAt)
	})
}

// image is the reference file content after script ops 0..last.
func image(script []scriptOp, last int, size int64) []byte {
	img := make([]byte, size)
	for _, o := range script[:last+1] {
		if o.kind == opWrite {
			copy(img[o.off:], bytes.Repeat([]byte{o.pat}, o.n))
		}
	}
	return img
}

// runScript executes the script once with the device armed to crash at
// media op crashAt (0 = never) and verifies whatever state the run left.
func runScript(cfg ScriptConfig, script []scriptOp, crashAt int64) (*Result, error) {
	devSize := devSizeFor(cfg.FileSize)
	b, err := newTestBed(devSize, cfg.FileSize, cfg.Seed, cfg.Format)
	if err != nil {
		return nil, err
	}
	mgsp, _ := b.fs.(*core.FS)
	if mgsp == nil && (cfg.SnapAt > 0 || cfg.DropAt > 0) {
		return nil, fmt.Errorf("torture: script snapshots need an MGSP subject")
	}
	res := &Result{CrashOp: -1, CrashWorker: -1, repro: cfg.reproLine(crashAt)}
	st := &state{}
	// The single writer is the setup worker: one virtual clock from layout
	// to the last op, which is what the cleaner's schedule runs on.
	ctx := b.setup
	completed, synced := -1, -1
	exec := func(i int, o scriptOp) error {
		switch o.kind {
		case opWrite:
			_, err := b.h.WriteAt(ctx, bytes.Repeat([]byte{o.pat}, o.n), o.off)
			return err
		case opFsync:
			return b.h.Fsync(ctx)
		case opSnap:
			st.created++ // an in-flight creation may leave one unknown entry
			st.inflightImg = image(script, i-1, cfg.FileSize)
			id, err := mgsp.Snapshot(ctx, fileName)
			if err == nil && !b.dev.Crashed() {
				st.completeSnap(st.addSnap(id, nil), st.inflightImg)
			}
			return err
		}
		sr := st.claimDropVictim()
		if sr == nil {
			return fmt.Errorf("no snapshot to drop")
		}
		err := mgsp.DropSnapshot(ctx, fileName, sr.id)
		if err == nil && !b.dev.Crashed() {
			st.finishDrop(sr, true)
		}
		return err
	}
	if crashAt > 0 {
		b.dev.ArmCrash(crashAt, cfg.Seed*31+crashAt)
	}
	// The op during which the cut lands ran past it, so it stays in flight:
	// it counts toward neither prefix.
	for i, o := range script {
		err := exec(i, o)
		if b.dev.Crashed() {
			break
		}
		if err != nil {
			st.noteErr(fmt.Errorf("op %d (%s): %w", i, o.kind, err))
			break
		}
		if o.kind == opFsync {
			synced = i
		}
		completed = i
	}
	res.Crashed = b.dev.Crashed()
	b.dev.DisarmCrash()
	res.MediaOps = b.dev.Stats().MediaOps.Load()
	st.report(res)

	vctx, fs, h := b.setup, b.fs, b.h
	var saved bytes.Buffer
	if res.Crashed {
		res.CrashOp, res.CrashWorker = b.dev.CrashInfo()
		b.dev.Recover()
		// Save the crashed image before Mount mutates it, so AltMount
		// recovers the same post-crash state.
		if cfg.AltMount != nil {
			if err := b.dev.Save(&saved); err != nil {
				return nil, err
			}
		}
		if vctx, fs, h, err = remount(b.dev, cfg.Seed, cfg.Mount); err != nil {
			res.addViolation("mount", -1, err.Error())
			return res, nil
		}
	}
	got := make([]byte, cfg.FileSize)
	if _, err := h.ReadAt(vctx, got, 0); err != nil {
		res.addViolation("read", -1, fmt.Sprintf("reading recovered file: %v", err))
		return res, nil
	}
	level := vfs.OpAtomic
	if g, ok := fs.(vfs.Guarantees); ok {
		level = g.Consistency()
	}
	if detail := checkPrefix(level, script, completed, synced, got); detail != "" {
		res.addViolation("prefix", -1, detail)
	}
	if res.Crashed && cfg.AltMount != nil {
		checkAltMount(cfg, res, &saved, devSize, got)
	}
	if mfs, ok := fs.(*core.FS); ok {
		st.checkMGSP(res, vctx, mfs)
		res.Trace = flightRecord(mfs, res.Violations)
	}
	return res, nil
}

// checkPrefix is the prefix oracle: got, the file after a crash that
// interrupted the op after script[completed], against what level admits.
// It returns "" when got is admissible.
func checkPrefix(level vfs.ConsistencyLevel, script []scriptOp, completed, synced int, got []byte) string {
	size := int64(len(got))
	switch level {
	case vfs.OpAtomic:
		// Exact op-boundary states: the completed prefix, possibly plus the
		// in-flight write.
		cands := [][]byte{image(script, completed, size)}
		next := completed + 1
		for next < len(script) && script[next].kind != opWrite {
			next++
		}
		if next < len(script) {
			cands = append(cands, image(script, next, size))
		}
		if core.MatchCandidate(got, cands) == -1 {
			return fmt.Sprintf(
				"recovered state is not an operation boundary (completed=%d, diverges from prefix at byte %d)",
				completed, core.FirstDivergence(got, cands[0]))
		}
	case vfs.SyncAtomic:
		// Each byte is either the state at the last successful fsync or some
		// later write's pattern...
		durable := image(script, synced, size)
		later := map[byte]bool{}
		for _, o := range script[synced+1:] {
			if o.kind == opWrite {
				later[o.pat] = true
			}
		}
		for i := range got {
			if got[i] != durable[i] && !later[got[i]] {
				return fmt.Sprintf("byte %d = %#x: neither synced state nor later write data", i, got[i])
			}
		}
		// ...and the synced prefix is not lost wholesale: a synced write no
		// later write overlaps must still be there.
		for i, o := range script[:synced+1] {
			if o.kind == opWrite && !overlapped(o, script[i+1:]) && got[o.off] != o.pat {
				return fmt.Sprintf("synced op %d lost after crash", i)
			}
		}
	}
	return "" // MetadataOnly: remounting sufficed.
}

// overlapped reports whether any write in later touches a byte of o.
func overlapped(o scriptOp, later []scriptOp) bool {
	for _, l := range later {
		if l.kind == opWrite && o.off < l.off+int64(l.n) && l.off < o.off+int64(o.n) {
			return true
		}
	}
	return false
}

// checkAltMount recovers the saved crashed image through cfg.AltMount and
// requires the same file contents the primary recovery read.
func checkAltMount(cfg ScriptConfig, res *Result, saved *bytes.Buffer, devSize int64, got []byte) {
	dev, err := nvm.LoadImage(saved, func(int64) *nvm.Device { return nvm.New(devSize, sim.ZeroCosts()) })
	if err != nil {
		res.addViolation("alt-mount", -1, fmt.Sprintf("loading the saved image: %v", err))
		return
	}
	ctx, _, h, err := remount(dev, cfg.Seed, cfg.AltMount)
	if err != nil {
		res.addViolation("alt-mount", -1, err.Error())
		return
	}
	alt := make([]byte, len(got))
	if _, err := h.ReadAt(ctx, alt, 0); err != nil {
		res.addViolation("alt-mount", -1, fmt.Sprintf("reading the alternate recovery: %v", err))
		return
	}
	if i := core.FirstDivergence(alt, got); i != -1 {
		res.addViolation("alt-mount", -1, fmt.Sprintf("alternate recovery diverges at byte %d", i))
	}
}
