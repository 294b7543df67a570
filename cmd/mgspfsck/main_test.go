package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"mgsp/internal/core"
	"mgsp/internal/nvm"
	"mgsp/internal/sim"
)

// TestFsckTortureImage: a concurrent torture workload crashed mid-flight
// must come back clean through recovery — exit 0 — and the saved crashed
// image must fsck clean when re-loaded from disk.
func TestFsckTortureImage(t *testing.T) {
	img := filepath.Join(t.TempDir(), "crash.img")
	var out, errb bytes.Buffer
	code := run([]string{"-torture", "-writers", "4", "-seed", "7", "-crash-after", "300", "-save", img}, &out, &errb)
	if code != 0 {
		t.Fatalf("torture-mode fsck exited %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "ok") {
		t.Fatalf("no ok verdict:\n%s", out.String())
	}

	out.Reset()
	errb.Reset()
	code = run([]string{"-load", img}, &out, &errb)
	if code != 0 {
		t.Fatalf("loading saved torture image exited %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
}

// TestFsckTortureImageSweep: several crash indices, all recovering clean.
func TestFsckTortureImageSweep(t *testing.T) {
	for _, crash := range []int64{50, 120, 260, 410} {
		var out, errb bytes.Buffer
		code := run([]string{"-torture", "-writers", "4", "-seed", "3",
			"-crash-after", strconv.FormatInt(crash, 10)}, &out, &errb)
		if code != 0 {
			t.Fatalf("crash-after=%d exited %d\nstderr:\n%s", crash, code, errb.String())
		}
	}
}

// TestFsckCorruptedImageFails: an image whose directory was deliberately
// damaged (a committed metadata-log chain referencing a cleared record —
// the signature of a lost directory store) must make fsck exit nonzero.
func TestFsckCorruptedImageFails(t *testing.T) {
	opts := core.DefaultOptions()
	dev := nvm.New(8<<20, sim.ZeroCosts())
	fs := core.MustNew(dev, opts)
	ctx := sim.NewCtx(0, 1)
	f, err := fs.Create(ctx, "victim")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(ctx, bytes.Repeat([]byte{0x5a}, 64<<10), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Fsync(ctx); err != nil {
		t.Fatal(err)
	}

	if _, err := core.CorruptDirectoryRecord(dev, opts); err != nil {
		t.Fatal(err)
	}
	img := filepath.Join(t.TempDir(), "corrupt.img")
	w, err := os.Create(img)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.Save(w); err != nil {
		t.Fatal(err)
	}
	w.Close()

	var out, errb bytes.Buffer
	code := run([]string{"-load", img}, &out, &errb)
	if code == 0 {
		t.Fatalf("fsck accepted a corrupted directory image\nstdout:\n%s", out.String())
	}
	if !strings.Contains(errb.String(), "unknown record") {
		t.Fatalf("expected the unknown-record recovery refusal, got:\n%s", errb.String())
	}
}

// TestFsckKeptLogsAuditClean: Mount keeps the shadow logs a crash leaves
// behind instead of writing them back, so the audit must account for them
// as live logs — a clean verdict with log blocks kept and no log data
// written by the mount.
func TestFsckKeptLogsAuditClean(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-file-mib", "4", "-ops", "300", "-crash-after", "2000", "-seed", "3", "-snap=false"}, &out, &errb)
	if code != 0 {
		t.Fatalf("fsck exited %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	var ms float64
	var wrote, kept int64
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "recovery: ") {
			if _, err := fmt.Sscanf(line, "recovery: %f ms virtual time, %d media bytes written, %d log blocks kept",
				&ms, &wrote, &kept); err != nil {
				t.Fatalf("unparsable recovery line %q: %v", line, err)
			}
		}
	}
	if kept == 0 {
		t.Fatalf("crash left no live logs; the case tests nothing\n%s", out.String())
	}
	// Replay and the metadata-log sweep write a few words; a write-back of
	// even one 4 KiB log block would exceed this.
	if wrote >= 4096 {
		t.Fatalf("mount wrote %d media bytes: logs were written back", wrote)
	}
	if !strings.Contains(out.String(), "\nok\n") {
		t.Fatalf("no ok verdict:\n%s", out.String())
	}
}

// TestFsckScriptedWorkload keeps the original single-writer mode honest
// with a small parameter set.
func TestFsckScriptedWorkload(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-file-mib", "4", "-ops", "200", "-crash-after", "1500", "-seed", "2"}, &out, &errb)
	if code != 0 {
		t.Fatalf("scripted fsck exited %d\nstderr:\n%s", code, errb.String())
	}
}
