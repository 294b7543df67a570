// Command mgspfsck demonstrates MGSP crash recovery end to end: it builds a
// workload on a simulated device (optionally snapshotting the file partway
// through so copy-on-write pins are in play), injects a crash at a chosen
// media-op index, remounts the file system through the §III-D recovery
// protocol, and reports what survived — the recovery time, the media bytes
// Mount wrote, and the shadow-log blocks it kept for the next close to write
// back. After recovery it audits the block allocator: every allocated block
// must be reachable from a file extent, a kept shadow log, or a snapshot
// pin. Leaked (orphaned) or double-accounted blocks make the command exit
// nonzero.
//
//	mgspfsck -file-mib 64 -ops 2000 -crash-after 5000
//
// Two alternate modes share the same recovery checker:
//
//	mgspfsck -torture -writers 4 -crash-after 300   # concurrent torture workload
//	mgspfsck -load image.bin                        # fsck a saved device image
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"mgsp/internal/core"
	"mgsp/internal/nvm"
	"mgsp/internal/sim"
	"mgsp/internal/torture"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("mgspfsck", flag.ContinueOnError)
	fl.SetOutput(stderr)
	fileMiB := fl.Int64("file-mib", 64, "file size in MiB")
	ops := fl.Int("ops", 2000, "random 4K writes before/while crashing")
	crashAfter := fl.Int64("crash-after", 4000, "media operations before the injected crash")
	seed := fl.Int64("seed", 1, "crash-tear PRNG seed")
	save := fl.String("save", "", "save the crashed (pre-recovery) device image to this file for mgspdump")
	cleanInt := fl.Int64("cleaner-interval", 0, "background cleaner pass interval in virtual ns (0 = disabled)")
	cleanBudget := fl.Int64("cleaner-budget", 0, "blocks reclaimed per cleaner pass (0 = unbounded)")
	snap := fl.Bool("snap", true, "take a snapshot halfway through the workload (exercises CoW pins)")
	tortureMode := fl.Bool("torture", false, "crash a concurrent multi-writer torture workload instead of the scripted one")
	writers := fl.Int("writers", 4, "torture mode: concurrent writer count")
	load := fl.String("load", "", "fsck a device image saved with -save (skips workload generation)")
	if err := fl.Parse(args); err != nil {
		return 2
	}

	opts := core.DefaultOptions()
	opts.CleanerInterval = *cleanInt
	opts.CleanerBudget = *cleanBudget

	switch {
	case *load != "":
		r, err := os.Open(*load)
		if err != nil {
			return fail(stderr, err)
		}
		dev, err := nvm.LoadImage(r, func(size int64) *nvm.Device {
			return nvm.New(size, sim.DefaultCosts())
		})
		r.Close()
		if err != nil {
			return fail(stderr, err)
		}
		fmt.Fprintf(stdout, "loaded %d MiB image from %s\n", dev.Size()>>20, *load)
		return check(dev, opts, "", stdout, stderr)

	case *tortureMode:
		cfg := torture.Config{Writers: *writers, Seed: *seed, CrashAt: *crashAfter}
		dev, err := torture.CrashedDevice(cfg)
		if err != nil {
			return fail(stderr, err)
		}
		crashOp, crashWorker := dev.CrashInfo()
		fmt.Fprintf(stdout, "torture workload (%d writers) crashed: media op %d torn under worker %d\n",
			*writers, crashOp, crashWorker)
		if code := saveImage(dev, *save, stdout, stderr); code != 0 {
			return code
		}
		return check(dev, opts, torture.FileName, stdout, stderr)
	}

	fileSize := *fileMiB << 20
	dev := nvm.New(fileSize*4+(64<<20), sim.DefaultCosts())
	fs, err := core.New(dev, opts)
	if err != nil {
		return fail(stderr, err)
	}
	ctx := sim.NewCtx(0, *seed)

	f, err := fs.Create(ctx, "data")
	if err != nil {
		return fail(stderr, err)
	}
	chunk := make([]byte, 1<<20)
	for off := int64(0); off < fileSize; off += 1 << 20 {
		if _, err := f.WriteAt(ctx, chunk, off); err != nil {
			return fail(stderr, err)
		}
	}
	fmt.Fprintf(stdout, "laid out %d MiB file; running %d random 4K writes, crash armed after %d media ops\n",
		*fileMiB, *ops, *crashAfter)

	dev.ArmCrash(*crashAfter, *seed)
	completed := 0
	buf := make([]byte, 4096)
	// The workload stops at the power cut; the op the cut landed in is not
	// counted as completed.
	for i := 0; i < *ops && !dev.Crashed(); i++ {
		if *snap && i == *ops/2 {
			id, err := fs.Snapshot(ctx, "data")
			if err != nil {
				return fail(stderr, err)
			}
			if dev.Crashed() {
				break
			}
			fmt.Fprintf(stdout, "snapshot %d taken after %d writes; remainder runs copy-on-write\n", id, completed)
		}
		off := ctx.Rand.Int63n(fileSize/4096) * 4096
		if _, err := f.WriteAt(ctx, buf, off); err != nil {
			return fail(stderr, err)
		}
		if !dev.Crashed() {
			completed++
		}
	}
	if dev.Crashed() {
		fmt.Fprintf(stdout, "CRASH after %d completed writes (mid-operation torn at 8-byte granularity)\n", completed)
	} else {
		fmt.Fprintf(stdout, "workload finished without reaching the fail point (%d writes)\n", completed)
	}
	if c := fs.Cleaner(); c != nil {
		cs := c.Stats()
		fmt.Fprintf(stdout, "cleaner: %d passes, %d blocks reclaimed, %d checkpoints, %d log blocks outstanding\n",
			cs.Passes, cs.BlocksReclaimed, cs.Checkpoints, fs.LogBlocks())
	}
	dev.DisarmCrash()
	if code := saveImage(dev, *save, stdout, stderr); code != 0 {
		return code
	}
	return check(dev, opts, "data", stdout, stderr)
}

// saveImage writes the crashed (pre-recovery) durable image to path.
func saveImage(dev *nvm.Device, path string, stdout, stderr io.Writer) int {
	if path == "" {
		return 0
	}
	w, err := os.Create(path)
	if err != nil {
		return fail(stderr, err)
	}
	if err := dev.Save(w); err != nil {
		w.Close()
		return fail(stderr, err)
	}
	if err := w.Close(); err != nil {
		return fail(stderr, err)
	}
	fmt.Fprintf(stdout, "crashed image saved to %s (inspect with mgspdump)\n", path)
	return 0
}

// check is the recovery checker every mode funnels into: drop volatile
// state, Mount through the recovery protocol, report what survived, and
// audit the block allocator. Exit 0 iff recovery succeeds and the audit is
// clean.
func check(dev *nvm.Device, opts core.Options, name string, stdout, stderr io.Writer) int {
	dev.Recover()
	wrote := dev.Stats().MediaWriteBytes.Load()
	rctx := sim.NewCtx(1, 1)
	fs2, err := core.Mount(rctx, dev, opts)
	if err != nil {
		return fail(stderr, fmt.Errorf("recovery failed: %w", err))
	}
	wrote = dev.Stats().MediaWriteBytes.Load() - wrote
	fmt.Fprintf(stdout, "recovery: %.2f ms virtual time, %d media bytes written, %d log blocks kept\n",
		float64(rctx.Now())/1e6, wrote, fs2.LogBlocks())
	st := fs2.Stats()
	fmt.Fprintf(stdout, "recovery replay: %d entries replayed, %d skipped as pre-checkpoint\n",
		st.EntriesReplayed.Load(), st.EntriesSkipped.Load())

	if name != "" {
		f2, err := fs2.Open(rctx, name)
		if err != nil {
			return fail(stderr, err)
		}
		fmt.Fprintf(stdout, "file %q recovered: %d bytes\n", name, f2.Size())
		if infos, err := fs2.Snapshots(rctx, name); err == nil {
			for _, s := range infos {
				fmt.Fprintf(stdout, "snapshot %d recovered: frozen-size=%d pins=%d pinned-blocks=%d\n",
					s.ID, s.Size, s.Pins, s.PinnedBlocks)
			}
		}
	}

	// Leaked-block audit: every allocated block must be reachable from a
	// file extent, a live shadow log (Mount keeps the logs until the next
	// close writes them back), or a snapshot pin.
	rep := fs2.AuditBlocks()
	fmt.Fprintf(stdout, "block audit: %d allocated, %d reachable\n", rep.Allocated, rep.Reachable)
	if !rep.Clean() {
		for _, off := range rep.Orphans {
			fmt.Fprintf(stderr, "mgspfsck: LEAKED block at offset %d (allocated, unreachable)\n", off)
		}
		for _, off := range rep.Unallocated {
			fmt.Fprintf(stderr, "mgspfsck: PHANTOM block at offset %d (reachable, not allocated)\n", off)
		}
		return fail(stderr, fmt.Errorf("block audit failed: %d orphans, %d phantoms", len(rep.Orphans), len(rep.Unallocated)))
	}
	fmt.Fprintln(stdout, "ok")
	return 0
}

func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "mgspfsck:", err)
	return 1
}
