// Package torture is the crash harness. Every run lays out one file on a
// fresh device, crashes it at a chosen media op, remounts, and checks an
// oracle; one crash-index loop (sweep.go) drives every sweep. Script mode
// (script.go) replays a single-writer script against any vfs.FS under the
// prefix oracle; serving mode (server.go) crashes a live server; the rest of
// this file and oracle.go are torture mode, whose Result, Violation and MGSP
// end checks the other modes share.
//
// Torture mode is the concurrent harness for MGSP: N writer goroutines
// issue a mixed workload (WriteAt, WriteMulti, Fsync, Snapshot,
// DropSnapshot) over overlapping regions of one shared file while the
// simulated NVM device is armed to crash at a sampled media-op index.
// After the crash the harness remounts through the §III-D recovery path and
// checks an op-atomicity oracle: every recovered region
// must equal the image of exactly one operation that could have been the
// region's last committed (or in-flight committed) write — never a torn
// interleaving — every region of a WriteMulti must commit together, every
// live snapshot must still serve its frozen image, and the block allocator
// must audit clean.
//
// Two execution modes share its region oracle:
//
//   - Concurrent (default): real goroutines race on the real lock paths, so
//     the run composes with -race. The per-run verdict is sound — the
//     oracle's happens-before order comes from a sim.Schedule recorder — but
//     the interleaving belongs to the Go scheduler.
//   - Serial (replay): a single goroutine interleaves the same per-writer
//     op traces in a seeded round-robin. The media-op stream, and therefore
//     the crash placement and the 8-byte tear, is a pure function of
//     (seed, writers, crash index): every violation found in serial mode
//     reproduces bit-identically from its repro line.
//
// Violations print a `go test -run`-able repro line; see Violation.Repro.
package torture

import (
	"fmt"
	"math/rand"
	"sync"

	"mgsp/internal/core"
	"mgsp/internal/nvm"
	"mgsp/internal/sim"
	"mgsp/internal/vfs"
)

// Worker ids outside the writer range (writers use 0..Writers-1). Kept well
// below core's cleanerWorker id.
const (
	setupWorker    = 1 << 16
	recoveryWorker = 1<<16 + 1
)

const fileName = "torture.dat"

// Config parameterizes one torture run. The zero value of every field gets
// a usable default from withDefaults; Seed and CrashAt are the two knobs a
// repro line pins.
type Config struct {
	Writers    int   // concurrent writers (default 4)
	Ops        int   // operations per writer (default 25)
	Regions    int   // oracle regions in the shared file (default 12)
	RegionSize int64 // bytes per region, multiple of 16 (default 1024)
	Seed       int64 // drives trace generation, tear PRNG, serial interleaving
	CrashAt    int64 // media ops after arming until the crash; 0 = run to completion

	// Op mix: roughly one in every N ops (0 = default, negative disables).
	// The defaults are part of the replay contract — a repro line encodes
	// only (seed, writers, ops, crash, torn, cache), so every run uses the
	// same mix.
	FsyncEvery int // default 8
	SnapEvery  int // default 10
	MultiEvery int // default 6
	ReadEvery  int // cache mode: cache-side ops (reads + private writes), default 3

	// Cache arms the DRAM frame tier: the FS mounts with a small
	// write-through frame pool, traces gain ReadAt ops (racing the optimistic
	// frame reads, miss fills and evictions against committed-write
	// patches), and each writer gets a private region checked live for
	// read-your-writes.
	Cache bool

	// InjectTorn makes writer 0's last op deliberately violate op atomicity
	// (it writes half of a reserved region while the oracle is told the
	// whole region was written). Used to prove the oracle catches torn
	// states and that repro lines replay them.
	InjectTorn bool

	// Serial selects the deterministic single-goroutine replay mode.
	Serial bool

	DevSize int64
	Opts    core.Options // zero value = core.DefaultOptions()
}

func (cfg Config) withDefaults() Config {
	if cfg.Writers == 0 {
		cfg.Writers = 4
	}
	if cfg.Ops == 0 {
		cfg.Ops = 25
	}
	if cfg.Regions == 0 {
		cfg.Regions = 12
	}
	if cfg.RegionSize == 0 {
		cfg.RegionSize = 1024
	}
	if cfg.FsyncEvery == 0 {
		cfg.FsyncEvery = 8
	}
	if cfg.SnapEvery == 0 {
		cfg.SnapEvery = 10
	}
	if cfg.MultiEvery == 0 {
		cfg.MultiEvery = 6
	}
	if cfg.ReadEvery == 0 {
		cfg.ReadEvery = 3
	}
	if cfg.Opts.Degree == 0 {
		cfg.Opts = core.DefaultOptions()
	}
	if cfg.Cache && cfg.Opts.CacheFrames == 0 {
		// A deliberately tiny pool (one set): evictions race every fill and
		// patch the sweep issues.
		cfg.Opts.CacheFrames = 8
	}
	if cfg.DevSize == 0 {
		cfg.DevSize = devSizeFor(cfg.fileSize())
	}
	return cfg
}

// devSizeFor sizes a run's device from its file: 16× the file leaves room
// for shadow logs, snapshot pins and the metadata log, and 4 MiB is the
// floor.
func devSizeFor(fileSize int64) int64 {
	if min := fileSize * 16; min > 4<<20 {
		return min
	}
	return 4 << 20
}

func (cfg Config) check() error {
	if cfg.Writers < 1 || cfg.Ops < 1 || cfg.Regions < 1 {
		return fmt.Errorf("torture: need at least one writer, op and region")
	}
	if cfg.RegionSize%16 != 0 {
		return fmt.Errorf("torture: region size %d not a multiple of 16", cfg.RegionSize)
	}
	return nil
}

// fileSize covers every oracle region: the shared ones, the reserved
// torn-injection region, and (in cache mode) one private region per writer.
func (cfg Config) fileSize() int64 { return int64(cfg.totalRegions()) * cfg.RegionSize }

// totalRegions includes the reserved region — and the per-writer private
// regions in cache mode — so the oracle scans them too.
func (cfg Config) totalRegions() int {
	n := cfg.Regions + 1
	if cfg.Cache {
		n += cfg.Writers
	}
	return n
}

// privateRegion is writer w's read-your-writes region (cache mode): nobody
// else writes it, so a read by w must observe exactly w's last acked write —
// served from a frame or from media, the distinction must be invisible.
func (cfg Config) privateRegion(w int) int { return cfg.Regions + 1 + w }

type opKind uint8

const (
	opWrite opKind = iota
	opMulti
	opFsync
	opSnap
	opDrop
	opRead
)

func (k opKind) String() string {
	switch k {
	case opWrite:
		return "write"
	case opMulti:
		return "writev"
	case opFsync:
		return "fsync"
	case opSnap:
		return "snap"
	case opDrop:
		return "drop"
	case opRead:
		return "read"
	}
	return "?"
}

// op is one generated trace step.
type op struct {
	kind    opKind
	regions []int
	torn    bool
}

// traces generates the per-writer op traces. They are a pure function of
// the config: the same (seed, writers, ops, mix) always yields the same
// traces, which is half of the replay contract (the other half is the
// serial interleaving).
func traces(cfg Config) [][]op {
	all := make([][]op, cfg.Writers)
	for w := 0; w < cfg.Writers; w++ {
		rng := rand.New(rand.NewSource(cfg.Seed*1000003 + int64(w)*7919 + 1))
		ops := make([]op, 0, cfg.Ops)
		for i := 0; i < cfg.Ops; i++ {
			switch {
			case cfg.InjectTorn && w == 0 && i == cfg.Ops-1:
				// The reserved region is written by nobody else, so the
				// violation depends only on whether this op ran, not on the
				// interleaving.
				ops = append(ops, op{kind: opWrite, regions: []int{cfg.Regions}, torn: true})
			case cfg.Cache && cfg.ReadEvery > 0 && rng.Intn(cfg.ReadEvery) == 0:
				// Cache-side ops. The && short-circuits, so non-cache runs
				// draw the exact same rng stream as before — the replay
				// contract for existing repro lines is untouched.
				switch rng.Intn(3) {
				case 0:
					ops = append(ops, op{kind: opWrite, regions: []int{cfg.privateRegion(w)}})
				case 1:
					ops = append(ops, op{kind: opRead, regions: []int{cfg.privateRegion(w)}})
				default:
					ops = append(ops, op{kind: opRead, regions: []int{rng.Intn(cfg.Regions)}})
				}
			case cfg.FsyncEvery > 0 && rng.Intn(cfg.FsyncEvery) == 0:
				ops = append(ops, op{kind: opFsync})
			case cfg.SnapEvery > 0 && rng.Intn(cfg.SnapEvery) == 0:
				if rng.Intn(2) == 0 {
					ops = append(ops, op{kind: opSnap})
				} else {
					ops = append(ops, op{kind: opDrop})
				}
			case cfg.MultiEvery > 0 && rng.Intn(cfg.MultiEvery) == 0 && cfg.Regions >= 2:
				a := rng.Intn(cfg.Regions)
				b := rng.Intn(cfg.Regions - 1)
				if b >= a {
					b++
				}
				ops = append(ops, op{kind: opMulti, regions: []int{a, b}})
			default:
				ops = append(ops, op{kind: opWrite, regions: []int{rng.Intn(cfg.Regions)}})
			}
		}
		all[w] = ops
	}
	return all
}

// stamp is the unique 8-byte word op (w, i) writes across region r. Stamps
// are never zero (regions start zeroed) and encode the target region, so
// the oracle detects misdirected writes as well as torn ones.
func stamp(w, i, r int) uint64 {
	return uint64(0xA5)<<56 | uint64(w&0xFFFF)<<40 | uint64(i&0xFFFF)<<24 |
		uint64(r&0xFFFF)<<8 | 0x5A
}

// stampImage fills one region with the op's stamp.
func stampImage(w, i, r int, size int64) []byte {
	img := make([]byte, size)
	s := stamp(w, i, r)
	for off := 0; off < len(img); off += 8 {
		putLE64(img[off:], s)
	}
	return img
}

func putLE64(b []byte, v uint64) {
	_ = b[7]
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func getLE64(b []byte) uint64 {
	_ = b[7]
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}

// multiWriter is the WriteMulti capability of MGSP handles.
type multiWriter interface {
	WriteMulti(ctx *sim.Ctx, updates []core.Update) error
}

// Mounter opens a file system on a device image: the recovery path after a
// crash.
type Mounter func(ctx *sim.Ctx, dev *nvm.Device) (vfs.FS, error)

// testBed is where every run, concurrent or scripted, starts: a fresh
// device, the file system under test formatted on it, and the shared file
// laid out as zeros and made durable by the setup worker. setup and h stay
// usable for verifying a run that completes.
type testBed struct {
	dev   *nvm.Device
	fs    vfs.FS
	setup *sim.Ctx
	h     vfs.File
}

func newTestBed(devSize, fileSize, seed int64, format func(*nvm.Device) (vfs.FS, error)) (*testBed, error) {
	b := &testBed{dev: nvm.New(devSize, sim.ZeroCosts()), setup: sim.NewCtx(setupWorker, seed)}
	var err error
	if b.fs, err = format(b.dev); err != nil {
		return nil, err
	}
	if b.h, err = b.fs.Create(b.setup, fileName); err != nil {
		return nil, err
	}
	if _, err := b.h.WriteAt(b.setup, make([]byte, fileSize), 0); err != nil {
		return nil, err
	}
	if err := b.h.Fsync(b.setup); err != nil {
		return nil, err
	}
	return b, nil
}

// remount recovers a crashed image through mount under the recovery worker
// and reopens the shared file.
func remount(dev *nvm.Device, seed int64, mount Mounter) (*sim.Ctx, vfs.FS, vfs.File, error) {
	ctx := sim.NewCtx(recoveryWorker, seed)
	fs, err := mount(ctx, dev)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("recovery failed: %w", err)
	}
	h, err := fs.Open(ctx, fileName)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("open after recovery: %w", err)
	}
	return ctx, fs, h, nil
}

// runCtx carries one run's live objects. lastPriv[w] is the stamp of writer
// w's last acked private-region write; it is only ever touched from w's own
// goroutine (its writes and its reads), so it needs no synchronization.
type runCtx struct {
	*testBed
	cfg      Config
	mgsp     *core.FS
	st       *state
	tr       [][]op
	lastPriv []uint64
}

// prepare lays out the test bed on a fresh MGSP and readies the oracle
// state.
func prepare(cfg Config) (*runCtx, error) {
	b, err := newTestBed(cfg.DevSize, cfg.fileSize(), cfg.Seed, func(dev *nvm.Device) (vfs.FS, error) {
		return core.New(dev, cfg.Opts)
	})
	if err != nil {
		return nil, err
	}
	return &runCtx{testBed: b, cfg: cfg, mgsp: b.fs.(*core.FS), st: newState(cfg), tr: traces(cfg),
		lastPriv: make([]uint64, cfg.Writers)}, nil
}

// execute arms the crash (if configured) and drives the workload in the
// configured mode, leaving the device disarmed afterwards.
func (r *runCtx) execute() {
	r.dev.OnCrash(func(int, int64) { r.st.sched.MarkCrash() })
	if r.cfg.CrashAt > 0 {
		r.dev.ArmCrash(r.cfg.CrashAt, r.cfg.Seed*31+r.cfg.CrashAt)
	}
	if r.cfg.Serial {
		r.runSerial()
	} else {
		r.runConcurrent()
	}
	r.dev.DisarmCrash()
	r.dev.OnCrash(nil)
}

// FileName is the shared file every torture run writes; external checkers
// (mgspfsck) open it on images produced by CrashedDevice.
const FileName = fileName

// CrashedDevice runs the configured workload until the armed crash and
// returns the cut, pre-recovery device — raw material for external
// recovery checkers, which Recover it before they mount. cfg.CrashAt must
// be set; an index past the workload's media-op range is an error.
func CrashedDevice(cfg Config) (*nvm.Device, error) {
	cfg = cfg.withDefaults()
	if err := cfg.check(); err != nil {
		return nil, err
	}
	if cfg.CrashAt <= 0 {
		return nil, fmt.Errorf("torture: CrashedDevice needs CrashAt > 0")
	}
	r, err := prepare(cfg)
	if err != nil {
		return nil, err
	}
	r.execute()
	if !r.dev.Crashed() {
		return nil, fmt.Errorf("torture: crash index %d past the workload (%d media ops)",
			cfg.CrashAt, r.dev.Stats().MediaOps.Load())
	}
	return r.dev, nil
}

// Run executes one torture run and verifies the oracle on whatever state
// the run left: the recovered image after a crash, or the live quiescent
// file system after completion. It returns an error only for harness-level
// failures (misconfiguration, setup I/O errors); oracle failures are
// reported as Result.Violations.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.check(); err != nil {
		return nil, err
	}
	r, err := prepare(cfg)
	if err != nil {
		return nil, err
	}
	dev, st := r.dev, r.st
	r.execute()
	crashed := dev.Crashed()
	res := &Result{
		Crashed:     crashed,
		CrashOp:     -1,
		CrashWorker: -1,
		Schedule:    st.sched,
		repro:       cfg.ReproLine(),
	}
	for _, sp := range st.sched.Spans() {
		res.OpsStarted++
		if !sp.InFlight() {
			res.OpsCompleted++
		}
	}
	// Frames live in DRAM, so the cut leaves them beside the volatile tree:
	// audit them on the live system, crashed or not, before any recovery.
	if err := r.mgsp.AuditFrames(); err != nil {
		res.addViolation("frame", -1, err.Error())
	}

	if crashed {
		res.CrashOp, res.CrashWorker = dev.CrashInfo()
		dev.Recover()
		rctx, fs2, h2, err := remount(dev, cfg.Seed+1, func(ctx *sim.Ctx, dev *nvm.Device) (vfs.FS, error) {
			return core.Mount(ctx, dev, cfg.Opts)
		})
		if err != nil {
			res.addViolation("mount", -1, err.Error())
			return res, nil
		}
		mfs := fs2.(*core.FS)
		st.verify(cfg, res, rctx, mfs, h2)
		res.Trace = flightRecord(mfs, res.Violations)
		h2.Close(rctx)
	} else {
		// Completed run: same oracle against the live quiescent system.
		st.verify(cfg, res, r.setup, r.mgsp, r.h)
		res.Trace = flightRecord(r.mgsp, res.Violations)
	}

	res.MediaOps = dev.Stats().MediaOps.Load()
	res.WorkerOps = dev.Stats().Workers()
	st.report(res)
	return res, nil
}

// runConcurrent races one goroutine per writer. Each writer stops at the
// power cut: the op it has in flight runs to completion on the overlay,
// and it issues no further op and skips Close.
func (r *runCtx) runConcurrent() {
	var wg sync.WaitGroup
	for w := 0; w < r.cfg.Writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := sim.NewCtx(w, r.cfg.Seed+int64(w)*104729+2)
			h, err := r.fs.Open(ctx, fileName)
			if err != nil {
				r.st.noteErr(fmt.Errorf("writer %d open: %w", w, err))
				return
			}
			for i, o := range r.tr[w] {
				if r.dev.Crashed() {
					return
				}
				r.exec(ctx, w, i, o, h)
			}
			if !r.dev.Crashed() {
				h.Close(ctx)
			}
		}(w)
	}
	wg.Wait()
}

// runSerial interleaves the same per-writer traces on one goroutine in a
// seeded round-robin. The first cut stops every writer at once, which is
// exactly what a single-threaded replay of a crash means.
func (r *runCtx) runSerial() {
	rng := rand.New(rand.NewSource(r.cfg.Seed ^ 0x7075726573657265))
	ctxs := make([]*sim.Ctx, r.cfg.Writers)
	handles := make([]vfs.File, r.cfg.Writers)
	for w := 0; w < r.cfg.Writers; w++ {
		ctxs[w] = sim.NewCtx(w, r.cfg.Seed+int64(w)*104729+2)
		h, err := r.fs.Open(ctxs[w], fileName)
		if err != nil {
			r.st.noteErr(fmt.Errorf("writer %d open: %w", w, err))
			return
		}
		handles[w] = h
	}
	cursor := make([]int, r.cfg.Writers)
	active := make([]int, r.cfg.Writers)
	for w := range active {
		active[w] = w
	}
	for len(active) > 0 && !r.dev.Crashed() {
		k := rng.Intn(len(active))
		w := active[k]
		r.exec(ctxs[w], w, cursor[w], r.tr[w][cursor[w]], handles[w])
		cursor[w]++
		if cursor[w] == len(r.tr[w]) {
			if !r.dev.Crashed() {
				handles[w].Close(ctxs[w])
			}
			active = append(active[:k], active[k+1:]...)
		}
	}
}

// exec issues one trace op, recording its span (and, for writes, its region
// history entries) before the first device access and its completion after
// the call returns. An op that returns after the crash was marked stays in
// flight.
func (r *runCtx) exec(ctx *sim.Ctx, w, i int, o op, h vfs.File) {
	st := r.st
	ops := func() int64 { return r.dev.Stats().MediaOps.Load() }
	switch o.kind {
	case opFsync:
		sp := st.sched.Begin(w, i, o.kind.String(), ops())
		if err := h.Fsync(ctx); err != nil {
			st.noteErr(fmt.Errorf("writer %d op %d fsync: %w", w, i, err))
			return
		}
		st.sched.End(sp, ops())

	case opWrite:
		e := st.beginOp(w, i, o, ops())
		img := stampImage(w, i, o.regions[0], r.cfg.RegionSize)
		off := int64(o.regions[0]) * r.cfg.RegionSize
		if o.torn {
			// Deliberate violation: apply only half of what the oracle was
			// told. MGSP commits the half-write atomically, so recovery
			// preserves a state the op history cannot explain.
			img = img[:r.cfg.RegionSize/2]
		}
		if _, err := h.WriteAt(ctx, img, off); err != nil {
			st.noteErr(fmt.Errorf("writer %d op %d write: %w", w, i, err))
			return
		}
		st.sched.End(e.span, ops())
		if r.cfg.Cache && o.regions[0] == r.cfg.privateRegion(w) {
			r.lastPriv[w] = stamp(w, i, o.regions[0])
		}

	case opMulti:
		e := st.beginOp(w, i, o, ops())
		updates := make([]core.Update, len(o.regions))
		for k, reg := range o.regions {
			updates[k] = core.Update{
				Off:  int64(reg) * r.cfg.RegionSize,
				Data: stampImage(w, i, reg, r.cfg.RegionSize),
			}
		}
		mw, ok := h.(multiWriter)
		if !ok {
			st.noteErr(fmt.Errorf("handle does not support WriteMulti"))
			return
		}
		if err := mw.WriteMulti(ctx, updates); err != nil {
			st.noteErr(fmt.Errorf("writer %d op %d writev: %w", w, i, err))
			return
		}
		st.sched.End(e.span, ops())

	case opSnap:
		if !st.snapBudget() {
			return
		}
		sp := st.sched.Begin(w, i, o.kind.String(), ops())
		id, err := r.mgsp.Snapshot(ctx, fileName)
		if err != nil {
			st.noteErr(fmt.Errorf("writer %d op %d snapshot: %w", w, i, err))
			return
		}
		if !st.sched.End(sp, ops()) {
			return // created past the cut: its commit may not be durable
		}
		sr := st.addSnap(id, sp)
		// Capture the frozen image now: it is stable by construction, and
		// the post-crash check compares against this capture. A committed
		// snapshot's image is the same on the overlay as on the durable
		// image, so a capture that runs past the cut still holds.
		sh, err := r.mgsp.OpenSnapshot(ctx, fileName, id)
		if err != nil {
			st.noteErr(fmt.Errorf("writer %d op %d open snapshot %d: %w", w, i, id, err))
			return
		}
		img := make([]byte, sh.Size())
		if _, err := sh.ReadAt(ctx, img, 0); err != nil {
			st.noteErr(fmt.Errorf("writer %d op %d read snapshot %d: %w", w, i, id, err))
			return
		}
		sh.Close(ctx)
		st.completeSnap(sr, img)

	case opRead:
		reg := o.regions[0]
		sp := st.sched.Begin(w, i, o.kind.String(), ops())
		buf := make([]byte, r.cfg.RegionSize)
		if _, err := h.ReadAt(ctx, buf, int64(reg)*r.cfg.RegionSize); err != nil {
			st.noteErr(fmt.Errorf("writer %d op %d read: %w", w, i, err))
			return
		}
		st.sched.End(sp, ops())
		// Live read oracle. Region writes commit atomically with respect to
		// readers (node locks on the media path, the seqlock on the frame
		// path), so a read must return one whole op image — mixed stamps mean
		// a torn frame copy.
		first := getLE64(buf)
		for off := 8; off+8 <= len(buf); off += 8 {
			if v := getLE64(buf[off:]); v != first {
				st.noteVio("read-torn", reg, fmt.Sprintf(
					"writer %d op %d read a torn region: word[0]=%#x word[%d]=%#x",
					w, i, first, off/8, v))
				return
			}
		}
		switch {
		case reg > r.cfg.Regions:
			// Private region: only this writer touches it, and the read is
			// program-ordered after the write, so acked content must be
			// visible — whether a frame or the media serves it.
			if want := r.lastPriv[w]; first != want {
				st.noteVio("read-your-writes", reg, fmt.Sprintf(
					"writer %d op %d read stamp %#x from its private region, want %#x",
					w, i, first, want))
			}
		case first != 0:
			// Shared region: any committed stamp is fine, but it must be a
			// well-formed stamp addressed to this region — anything else is a
			// misdirected or half-patched frame.
			if first>>56 != 0xA5 || first&0xFF != 0x5A || int(first>>8&0xFFFF) != reg {
				st.noteVio("read-misdirected", reg, fmt.Sprintf(
					"writer %d op %d read stamp %#x not addressed to region %d",
					w, i, first, reg))
			}
		}

	case opDrop:
		sr := st.claimDropVictim()
		if sr == nil {
			return
		}
		sp := st.sched.Begin(w, i, o.kind.String(), ops())
		err := r.mgsp.DropSnapshot(ctx, fileName, sr.id)
		if err != nil && err != core.ErrSnapshotBusy {
			st.noteErr(fmt.Errorf("writer %d op %d drop snapshot %d: %w", w, i, sr.id, err))
			return
		}
		if !st.sched.End(sp, ops()) {
			return // returned past the cut: the drop stays in flight
		}
		// ErrSnapshotBusy: a concurrent capture holds it; retryable.
		st.finishDrop(sr, err == nil)
	}
}
