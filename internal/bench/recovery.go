package bench

import (
	"fmt"

	"mgsp/internal/core"
	"mgsp/internal/nvm"
	"mgsp/internal/sim"
)

// Recovery reproduces the §III-D recovery measurement: run a random-write
// workload, crash at a random point, and measure the virtual time Mount
// takes to replay the metadata log, then the Open + Close of the recovered
// file that writes every shadow log back (Mount keeps the logs; the first
// last-close writes them back). The paper, which writes back during
// recovery, reports 186 ms to restore a 1 GiB file (153 ms of it writing
// 189 MB of logs back) — comparable to mount-ms + close-ms — and bounds the
// worst case under one second.
func Recovery(sc Scale) (*Table, error) {
	sizes := []int64{sc.FileSize / 4, sc.FileSize / 2, sc.FileSize}
	rows := make([]string, len(sizes))
	for i, s := range sizes {
		rows[i] = fmt.Sprintf("%dMiB-file", s>>20)
	}
	t := NewTable("recovery", "crash recovery time (Mount, then the first Close's log write-back)", "ms",
		[]string{"mount-ms", "close-ms", "logdata-MiB"}, rows)
	for i, size := range sizes {
		r, err := recoverOnce(size, sc.Ops*4, int64(i)+1)
		if err != nil {
			return nil, err
		}
		t.Cells[i][0] = r.mountMs
		t.Cells[i][1] = r.closeMs
		t.Cells[i][2] = r.logMiB
	}
	t.Notes = append(t.Notes, "paper: 186 ms for a 1 GiB file with 48K log entries (189 MB written back); compare mount-ms + close-ms")
	return t, nil
}

type recoveryResult struct {
	mountMs float64 // virtual time of Mount
	closeMs float64 // virtual time of Open + Close of the recovered file
	logMiB  float64 // media bytes that Close wrote back
}

func recoverOnce(fileSize int64, ops int, seed int64) (recoveryResult, error) {
	var r recoveryResult
	dev := nvm.New(devSizeFor(fileSize), sim.DefaultCosts())
	fs := core.MustNew(dev, core.DefaultOptions())
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
	// Random-write phase filling the logs, then crash mid-flight.
	buf := make([]byte, 4096)
	dev.ArmCrash(int64(ops)*3, seed) // land the crash inside the workload
	for i := 0; i < ops*4 && !dev.Crashed(); i++ {
		off := ctx.Rand.Int63n(fileSize/4096) * 4096
		if _, err := f.WriteAt(ctx, buf, off); err != nil {
			break
		}
	}
	dev.DisarmCrash()
	dev.Recover()

	rctx := sim.NewCtx(1, seed)
	fs2, err := core.Mount(rctx, dev, core.DefaultOptions())
	if err != nil {
		return r, err
	}
	r.mountMs = float64(rctx.Now()) / 1e6

	before, began := dev.Stats().MediaWriteBytes.Load(), rctx.Now()
	f2, err := fs2.Open(rctx, "data")
	if err != nil {
		return r, err
	}
	if err := f2.Close(rctx); err != nil {
		return r, err
	}
	r.closeMs = float64(rctx.Now()-began) / 1e6
	r.logMiB = float64(dev.Stats().MediaWriteBytes.Load()-before) / (1 << 20)
	return r, nil
}
