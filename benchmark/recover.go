package main

import (
	"bytes"
	"fmt"
	"time"

	"mgsp/internal/core"
	"mgsp/internal/nvm"
	"mgsp/internal/sim"
	"mgsp/internal/vfs"
)

// recoverer recovers plug-pulled images of a device. What survives a
// plug-pull is the device's durable image (Save writes exactly that, so the
// live device needs no DropVolatile and can go on serving). One scratch
// device is reloaded for every mount — allocating 2x192 MiB each time would
// cost more wall time than the mounts — and each mount's clock starts where
// the previous one ended, so earlier bookings on the scratch device's
// bandwidth timeline lie in its past.
type recoverer struct {
	opts    core.Options
	tr      *tracer // nil: untraced
	img     bytes.Buffer
	scratch *nvm.Device
	ctx     *sim.Ctx
}

// recovered is one core.Mount of one image.
type recovered struct {
	virtMS, wallMS float64
	fs             *core.FS
	mediaWrite     int64 // media bytes the mount wrote: the log write-back
}

func newRecoverer(opts core.Options, tr *tracer) *recoverer {
	return &recoverer{opts: opts, tr: tr, ctx: sim.NewCtx(0, 1)}
}

// pull captures dev's durable image; mount recovers from the captured image.
func (r *recoverer) pull(dev *nvm.Device) error {
	r.img.Reset()
	r.img.Grow(int(dev.Size()) + 64)
	return dev.Save(&r.img)
}

func (r *recoverer) mount() (*recovered, error) {
	dev, err := nvm.LoadImage(bytes.NewReader(r.img.Bytes()), func(size int64) *nvm.Device {
		if r.scratch == nil {
			r.scratch = nvm.New(size, sim.DefaultCosts())
		}
		return r.scratch
	})
	if err != nil {
		return nil, err
	}
	dev.Recover()
	written, v0 := dev.Stats().MediaWriteBytes.Load(), r.ctx.Now()
	var s span
	if r.tr != nil {
		s = r.tr.begin(spanCoreMount, 0, 0, v0)
	}
	t0 := time.Now()
	fs, err := core.Mount(r.ctx, dev, r.opts)
	wall := time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("mount after plug-pull: %w", err)
	}
	rec := &recovered{
		virtMS: float64(r.ctx.Now()-v0) / 1e6, wallMS: float64(wall) / 1e6, fs: fs,
		mediaWrite: dev.Stats().MediaWriteBytes.Load() - written,
	}
	if r.tr != nil {
		r.tr.end(s, r.ctx.Now(), rec.mediaWrite)
	}
	return rec, nil
}

// sample pulls the plug at `points` points of the workload, `advance` apart,
// and recovers each image once. How much log a crash leaves to write back
// depends on where it lands (on lib-mixed-msl-4w, by +-6 % between seeds), so
// the run reports the mean over several crashes, not one. It returns the last
// recovery for the oracle to read back.
func (r *recoverer) sample(points int, dev *nvm.Device, advance func() error) (virtMS, wallMS float64, last *recovered, err error) {
	for i := 0; i < points; i++ {
		if i > 0 {
			if err := advance(); err != nil {
				return 0, 0, nil, err
			}
		}
		if err := r.pull(dev); err != nil {
			return 0, 0, nil, err
		}
		if last, err = r.mount(); err != nil {
			return 0, 0, nil, err
		}
		virtMS += last.virtMS / float64(points)
		wallMS += last.wallMS / float64(points)
	}
	return virtMS, wallMS, last, nil
}

// verifyFile reads name back in full through fs and counts the bytes that
// differ from what the oracle expects.
func verifyFile(fs vfs.FS, name string, size int64, expect func(dst []byte, off int64)) (int64, error) {
	ctx := sim.NewCtx(0, 1)
	f, err := fs.Open(ctx, name)
	if err != nil {
		return 0, fmt.Errorf("read-back open: %w", err)
	}
	if f.Size() != size {
		return 0, fmt.Errorf("read-back: file is %d bytes, want %d", f.Size(), size)
	}
	const chunk = 1 << 20
	got, want := make([]byte, chunk), make([]byte, chunk)
	var bad int64
	for off := int64(0); off < size; off += chunk {
		n, err := f.ReadAt(ctx, got, off)
		if err != nil || n != chunk {
			return 0, fmt.Errorf("read-back at %d: n=%d err=%v", off, n, err)
		}
		expect(want, off)
		if !bytes.Equal(got, want) {
			for i := range got {
				if got[i] != want[i] {
					bad++
				}
			}
		}
	}
	return bad, f.Close(ctx)
}
