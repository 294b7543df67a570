package main

import (
	"fmt"

	"mgsp/internal/cache"
	"mgsp/internal/nvm"
	"mgsp/internal/pmfile"
	"mgsp/internal/sim"
	"mgsp/internal/vfs"
)

// fileTarget drives any vfs.FS (MGSP or a baseline) through one open handle
// per virtual worker, as separate threads of one process would.
type fileTarget struct {
	files []vfs.File
	fsync bool    // Fsync after every write
	tr    *tracer // nil: untraced
}

func openFileTarget(fs vfs.FS, ctxs []*sim.Ctx, name string, fsync bool) (*fileTarget, error) {
	t := &fileTarget{fsync: fsync}
	for i, ctx := range ctxs {
		var f vfs.File
		var err error
		if i == 0 {
			f, err = fs.Create(ctx, name)
		} else {
			f, err = fs.Open(ctx, name)
		}
		if err != nil {
			return nil, fmt.Errorf("open %s for worker %d: %w", name, i, err)
		}
		t.files = append(t.files, f)
	}
	return t, nil
}

func short(n, want int) error {
	if n != want {
		return fmt.Errorf("short transfer: %d of %d bytes", n, want)
	}
	return nil
}

func (t *fileTarget) do(w int, ctx *sim.Ctx, o *op, data []byte) error {
	if t.tr != nil {
		return t.doTraced(w, ctx, o, data)
	}
	f := t.files[w]
	if o.read {
		n, err := f.ReadAt(ctx, data, o.off)
		if err != nil {
			return err
		}
		return short(n, len(data))
	}
	n, err := f.WriteAt(ctx, data, o.off)
	if err != nil {
		return err
	}
	if t.fsync {
		if err := f.Fsync(ctx); err != nil {
			return err
		}
	}
	return short(n, len(data))
}

// doTraced is do with a span around each call it makes; an op that makes two
// calls (write then fsync) gets a parent span over both.
func (t *fileTarget) doTraced(w int, ctx *sim.Ctx, o *op, data []byte) error {
	f, tr := t.files[w], t.tr
	if o.read {
		s := tr.begin(spanCoreRead, 0, w, ctx.Now())
		n, err := f.ReadAt(ctx, data, o.off)
		tr.end(s, ctx.Now(), int64(n))
		if err != nil {
			return err
		}
		return short(n, len(data))
	}
	var parent uint32
	if t.fsync {
		opSpan := tr.begin(spanOp, 0, w, ctx.Now())
		defer func() { tr.end(opSpan, ctx.Now(), int64(len(data))) }()
		parent = opSpan.id
	}
	s := tr.begin(spanCoreWrite, parent, w, ctx.Now())
	n, err := f.WriteAt(ctx, data, o.off)
	tr.end(s, ctx.Now(), int64(n))
	if err != nil {
		return err
	}
	if t.fsync {
		s := tr.begin(spanCoreFsync, parent, w, ctx.Now())
		err := f.Fsync(ctx)
		tr.end(s, ctx.Now(), 0)
		if err != nil {
			return err
		}
	}
	return short(n, len(data))
}

// pmfileTarget is DAX without consistency: the same stream as stores and
// loads through the mapping, a fence after each store. It is the floor a
// crash-consistent layer on top can approach but not beat.
type pmfileTarget struct{ pf *pmfile.File }

func (t pmfileTarget) do(_ int, ctx *sim.Ctx, o *op, data []byte) error {
	if o.read {
		t.pf.DirectRead(ctx, data, o.off)
		return nil
	}
	t.pf.DirectWrite(ctx, data, o.off)
	t.pf.Fence(ctx)
	return nil
}

// nvmTarget is the raw device: the same stream as non-temporal stores and
// reads at device offsets. It is the bandwidth ceiling of the cost model.
type nvmTarget struct {
	dev  *nvm.Device
	base int64
}

func (t nvmTarget) do(_ int, ctx *sim.Ctx, o *op, data []byte) error {
	if o.read {
		t.dev.Read(ctx, data, t.base+o.off)
		return nil
	}
	t.dev.WriteNT(ctx, data, t.base+o.off)
	t.dev.Fence(ctx)
	return nil
}

// cacheTarget is the block stream against a bare frame pool: reads probe and
// install on a miss, writes patch a present frame — what core asks of the
// cache tier, without core.
type cacheTarget struct{ p *cache.Pool }

func (t cacheTarget) do(_ int, _ *sim.Ctx, o *op, data []byte) error {
	for done := 0; done < len(data); {
		off := o.off + int64(done)
		blk, in := off/blockSize, int(off%blockSize)
		n := blockSize - in
		if n > len(data)-done {
			n = len(data) - done
		}
		part := data[done : done+n]
		if !o.read {
			t.p.Patch(0, blk, in, part, false)
		} else if !t.p.Read(0, blk, part, in) {
			// Install takes ownership of its buffer, so a fill allocates one
			// frame — in core as here.
			t.p.Install(0, blk, make([]byte, blockSize), false)
		}
		done += n
	}
	return nil
}

// noopTarget measures the driver itself: scheduling, op fetch, sampling.
type noopTarget struct{}

func (noopTarget) do(int, *sim.Ctx, *op, []byte) error { return nil }
