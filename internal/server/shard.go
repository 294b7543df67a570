package server

import (
	"fmt"
	"sync"
	"time"

	"mgsp/internal/core"
	"mgsp/internal/nvm"
	"mgsp/internal/obs"
	"mgsp/internal/sim"
	"mgsp/internal/vfs"
)

// Worker-id bases for the sim contexts the server mints. They only need to
// be unique among concurrent operations (metadata-log claims hash them,
// lock owners compare them); the ranges keep them recognizable in traces.
const (
	connWorkerBase  = 1 << 17 // per-request contexts on connection goroutines
	batchWorkerBase = 1 << 18 // one per shard batcher
)

// multiWriter matches core's handle; the batcher commits through it.
type multiWriter interface {
	WriteMulti(ctx *sim.Ctx, updates []core.Update) error
}

// srvFile is a server-side shared open file: every client handle on the
// same (tenant, name) maps to one vfs.File, so MGSP's close-time write-back
// fires when the last client lets go, not per client.
type srvFile struct {
	sh   *shard
	key  string // tenant-scoped name; the name inside the FS namespace
	vf   vfs.File
	mw   multiWriter // vf downcast once at open
	refs int         // client handles plus requests in flight; guarded by sh.mu
}

// shard is one MGSP file system plus the single goroutine that group-commits
// its writes. Sharding is by tenant-scoped file name, so one hot tenant
// saturating its shard's batcher leaves other shards' latency alone.
type shard struct {
	srv *Server
	idx int
	dev *nvm.Device
	fs  *core.FS
	ctx *sim.Ctx // the batcher's context; only the batcher goroutine uses it

	queue chan *writeOp

	mu   sync.Mutex
	open map[string]*srvFile
}

func (s *Server) newShard(idx int) *shard {
	dev := nvm.New(s.cfg.devSize(), sim.DefaultCosts())
	return &shard{
		srv:   s,
		idx:   idx,
		dev:   dev,
		fs:    core.MustNew(dev, s.cfg.FSOpts),
		ctx:   sim.NewCtx(batchWorkerBase+idx, s.cfg.Seed+int64(idx)),
		queue: make(chan *writeOp, s.cfg.queueCap()),
		open:  make(map[string]*srvFile),
	}
}

// openFile returns the shared handle for key, opening or creating the file
// on first use. ctx is the calling request's context.
func (sh *shard) openFile(ctx *sim.Ctx, key string, create bool) (*srvFile, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sf := sh.open[key]; sf != nil {
		sf.refs++
		return sf, nil
	}
	vf, err := sh.fs.Open(ctx, key)
	if err == vfs.ErrNotExist && create {
		vf, err = sh.fs.Create(ctx, key)
	}
	if sh.dev.Crashed() {
		return nil, ErrCrashed
	}
	if err != nil {
		if err == vfs.ErrNotExist {
			return nil, ErrNotExist
		}
		return nil, err
	}
	mw, ok := vf.(multiWriter)
	if !ok {
		vf.Close(ctx)
		return nil, fmt.Errorf("server: %T does not support WriteMulti", vf)
	}
	sf := &srvFile{sh: sh, key: key, vf: vf, mw: mw, refs: 1}
	sh.open[key] = sf
	return sf, nil
}

// release drops one reference; the last one closes the underlying file
// (triggering MGSP's close-time log write-back). A nil sf is a no-op.
func (sf *srvFile) release() {
	if sf == nil {
		return
	}
	sh := sf.sh
	sh.mu.Lock()
	sf.refs--
	last := sf.refs == 0
	if last {
		delete(sh.open, sf.key)
	}
	sh.mu.Unlock()
	if last {
		sf.vf.Close(sh.srv.newCtx())
	}
}

// closeAll closes every shared handle (shutdown path, after the batcher has
// drained) so the device image carries written-back, fsck-clean state.
func (sh *shard) closeAll(ctx *sim.Ctx) {
	sh.mu.Lock()
	files := make([]*srvFile, 0, len(sh.open))
	for _, sf := range sh.open {
		files = append(files, sf)
	}
	sh.open = make(map[string]*srvFile)
	sh.mu.Unlock()
	for _, sf := range files {
		sf.vf.Close(ctx)
	}
}

// run is the shard's group-commit loop: block for one write, drain the
// window, commit the batch, ack. Exits when the queue closes (server
// shutdown) after draining what was queued.
func (sh *shard) run() {
	defer sh.srv.wg.Done()
	for op := range sh.queue {
		sh.commit(sh.drain(op))
	}
}

// drain collects the batch: everything immediately queued, then whatever
// more arrives within BatchWait, capped at MaxBatchOps. The wait is the
// group-commit gamble — a little wall-clock latency buys writes per
// metadata-log flush (Snapshot's msync batching, NVLog's absorb window).
func (sh *shard) drain(first *writeOp) []*writeOp {
	batch := []*writeOp{first}
	max := sh.srv.cfg.maxBatchOps()
	// Greedy phase: take the backlog without waiting.
	for len(batch) < max {
		select {
		case op, ok := <-sh.queue:
			if !ok {
				return batch
			}
			batch = append(batch, op)
			continue
		default:
		}
		break
	}
	wait := sh.srv.cfg.batchWait()
	if wait <= 0 || len(batch) >= max {
		return batch
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	for len(batch) < max {
		select {
		case op, ok := <-sh.queue:
			if !ok {
				return batch
			}
			batch = append(batch, op)
		case <-timer.C:
			return batch
		}
	}
	return batch
}

// CommitOp describes one write inside a CommitRecord. Head is the write's
// first 8 data bytes as a little-endian word — enough identity for an
// oracle to tell whose data a recovered region holds without the hook
// retaining every payload.
type CommitOp struct {
	Key  string // tenant-scoped file name
	Off  int64
	Len  int
	Head uint64
}

// CommitRecord describes one attempted WriteMulti group commit: the writes
// it coalesced and the outcome. The torture harness installs a CommitHook
// to learn batch membership — its oracle needs to know which writes were
// promised atomicity together.
type CommitRecord struct {
	Shard int
	Ops   []CommitOp
	Err   error // nil on success; ErrCrashed when the media died mid-commit
}

// commit plans the batch into disjoint sub-batches, applies each file's run
// as one WriteMulti, and acks every op with its outcome.
func (sh *shard) commit(batch []*writeOp) {
	srv := sh.srv
	for _, sub := range planSubBatches(batch) {
		for _, run := range splitByFile(sub) {
			err := sh.commitRun(run)
			for _, op := range run.ops {
				if err == nil {
					srv.obs.cWritesAcked.Add(1)
					op.ten.writesAcked.Add(1)
					op.ten.bytesWritten.Add(int64(len(op.data)))
				} else if op.growth > 0 {
					op.ten.growBytes(-op.growth) // the reservation never landed
				}
				op.done <- err
			}
		}
	}
}

// commitRun applies one file's run of a sub-batch as a single WriteMulti.
func (sh *shard) commitRun(run fileRun) error {
	srv := sh.srv
	if srv.dead() {
		err := srv.deadErr()
		srv.hook(CommitRecord{Shard: sh.idx, Ops: recordOps(run), Err: err})
		return err
	}
	updates := make([]core.Update, len(run.ops))
	for i, op := range run.ops {
		updates[i] = core.Update{Off: op.off, Data: op.data}
	}
	err := run.sf.mw.WriteMulti(sh.ctx, updates)
	if sh.dev.Crashed() {
		srv.noteCrash()
		err = ErrCrashed
	}
	if err == nil {
		srv.obs.hBatchSize.Observe(int64(len(run.ops)))
		srv.obs.cGroupCommits.Add(1)
	}
	srv.hook(CommitRecord{Shard: sh.idx, Ops: recordOps(run), Err: err})
	return err
}

func recordOps(run fileRun) []CommitOp {
	ops := make([]CommitOp, len(run.ops))
	for i, op := range run.ops {
		n := len(op.data)
		if n > 8 {
			n = 8
		}
		var head uint64
		for b := n - 1; b >= 0; b-- {
			head = head<<8 | uint64(op.data[b])
		}
		ops[i] = CommitOp{Key: run.sf.key, Off: op.off, Len: len(op.data), Head: head}
	}
	return ops
}

// mergeObs copies the shard FS's registry snapshot into out under a
// "shard<i>." prefix.
func (sh *shard) mergeObs(out *obs.Snapshot) {
	snap := sh.fs.Obs().Snapshot()
	prefix := fmt.Sprintf("shard%d.", sh.idx)
	for k, v := range snap.Values {
		out.Values[prefix+k] = v
	}
	for k, h := range snap.Hists {
		if out.Hists == nil {
			out.Hists = make(map[string]obs.HistSnapshot)
		}
		out.Hists[prefix+k] = h
	}
}
