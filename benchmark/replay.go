package main

import (
	"fmt"
	"runtime"

	"mgsp/internal/cache"
	"mgsp/internal/core"
	"mgsp/internal/ext4"
	"mgsp/internal/libnvmmio"
	"mgsp/internal/nova"
	"mgsp/internal/nvm"
	"mgsp/internal/pmfile"
	"mgsp/internal/sim"
	"mgsp/internal/vfs"
)

// replay is a differential replay: the op stream the traced window ran,
// driven against the layer beneath the one under test (or beside it, for the
// baselines) under the same worker schedule. A layer's self cost is then its
// own result minus its child's.
type replay struct {
	pool     []byte
	ops      []op
	warm     int // ops [0, warm) run first, unmeasured (the sequential pass)
	base, n  int // the measured stream, as in run
	count    int // ops to replay
	workers  int
	fileSize int64
	devSize  int64
}

type replayed struct {
	res         *result
	allocsPerOp float64
}

func (r *replayed) wallNSPerOp() float64 { return ratio(float64(r.res.wallNS), float64(r.res.ops)) }

func (rp *replay) against(t target, ctxs []*sim.Ctx, orc *oracle) (*replayed, error) {
	pass := func(base, n, count int) *result {
		return (&run{t: t, ctxs: ctxs, pool: rp.pool, ops: rp.ops, base: base, n: n, count: count, oracle: orc}).exec()
	}
	if rp.warm > 0 {
		if w := pass(0, rp.warm, rp.warm); w.failed > 0 {
			return nil, fmt.Errorf("replay sequential pass: %v", w.firstErr)
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	res := pass(rp.base, rp.n, rp.count)
	runtime.ReadMemStats(&m1)
	if res.failed > 0 {
		return nil, fmt.Errorf("replay: %d ops failed: %v", res.failed, res.firstErr)
	}
	return &replayed{res: res, allocsPerOp: float64(m1.Mallocs-m0.Mallocs) / float64(res.ops)}, nil
}

func (rp *replay) onNVM() (*replayed, error) {
	dev := nvm.New(rp.devSize, sim.DefaultCosts())
	return rp.against(nvmTarget{dev: dev, base: rp.devSize / 2}, newCtxs(rp.workers, 1), nil)
}

func (rp *replay) onPmfile() (*replayed, error) {
	dev := nvm.New(rp.devSize, sim.DefaultCosts())
	prov := pmfile.New(dev, core.MetaBytes(rp.devSize))
	ctx := sim.NewCtx(0, 1)
	pf, err := prov.Create(ctx, dataFile)
	if err != nil {
		return nil, err
	}
	if err := pf.EnsureCapacity(ctx, rp.fileSize); err != nil {
		return nil, err
	}
	return rp.against(pmfileTarget{pf}, newCtxs(rp.workers, 1), nil)
}

func (rp *replay) onCache() (*replayed, error) {
	return rp.against(cacheTarget{cache.New(2048, blockSize)}, newCtxs(rp.workers, 1), nil)
}

// onNothing measures the driver alone — schedule, op fetch, sampling and the
// oracle's bookkeeping (its verdicts mean nothing here: nothing is read).
func (rp *replay) onNothing() (*replayed, error) {
	return rp.against(noopTarget{}, newCtxs(rp.workers, 1), newOracle(rp.pool, rp.ops, rp.fileSize))
}

// onFS replays against a file system through one handle per worker, with an
// fsync after every write: the durability MGSP gives per operation is what a
// baseline must be asked for, as the paper's figure 8 does.
func (rp *replay) onFS(fs vfs.FS, workers int) (*replayed, error) {
	ctxs := newCtxs(workers, 1)
	t, err := openFileTarget(fs, ctxs, dataFile, true)
	if err != nil {
		return nil, err
	}
	return rp.against(t, ctxs, nil)
}

// baselines are the paper's comparison systems, read-only to this benchmark.
var baselines = []struct {
	metric string
	make   func(dev *nvm.Device) vfs.FS
}{
	{"paper.speedup_vs_ext4dax", func(dev *nvm.Device) vfs.FS { return ext4.New(dev, ext4.DAX) }},
	{"paper.speedup_vs_nova", func(dev *nvm.Device) vfs.FS { return nova.New(dev) }},
	{"paper.speedup_vs_libnvmmio", func(dev *nvm.Device) vfs.FS { return libnvmmio.New(dev) }},
}

// layers runs every replay the traced run reports and fills the metrics
// that come from them. coreVirtMiBps and coreNSPerOp / coreVirtNSPerOp are
// the system under test on the same stream (untraced for the wall figure).
func (rp *replay) layers(m map[string]float64, coreVirtMiBps, coreNSPerOp, coreVirtNSPerOp float64) error {
	onNVM, err := rp.onNVM()
	if err != nil {
		return err
	}
	m["nvm.replay_virt_mibps"] = onNVM.res.virtMiBps()
	m["nvm.replay_wall_ns_per_op"] = onNVM.wallNSPerOp()
	m["nvm.replay_allocs_per_op"] = onNVM.allocsPerOp

	onPM, err := rp.onPmfile()
	if err != nil {
		return err
	}
	m["pmfile.replay_virt_mibps"] = onPM.res.virtMiBps()
	m["pmfile.replay_wall_ns_per_op"] = onPM.wallNSPerOp()
	m["pmfile.replay_allocs_per_op"] = onPM.allocsPerOp
	m["core.self_wall_ns_per_op"] = coreNSPerOp - onPM.wallNSPerOp()
	m["core.self_virt_ns_per_op"] = coreVirtNSPerOp - ratio(float64(onPM.res.sumVirtOpNS), float64(onPM.res.ops))

	onCache, err := rp.onCache()
	if err != nil {
		return err
	}
	m["cache.replay_wall_ns_per_op"] = onCache.wallNSPerOp()
	m["cache.replay_allocs_per_op"] = onCache.allocsPerOp

	onNothing, err := rp.onNothing()
	if err != nil {
		return err
	}
	m["bench.driver_wall_ns_per_op"] = onNothing.wallNSPerOp()

	// The baselines get half the ops: Libnvmmio with an fsync per 256 KiB
	// write is several times slower on the wall clock than anything else
	// here, and a rate needs no more.
	rp.count /= 2
	for _, b := range baselines {
		on, err := rp.onFS(b.make(nvm.New(rp.devSize, sim.DefaultCosts())), rp.workers)
		if err != nil {
			return fmt.Errorf("%s: %w", b.metric, err)
		}
		m[b.metric] = ratio(coreVirtMiBps, on.res.virtMiBps())
	}
	return nil
}
