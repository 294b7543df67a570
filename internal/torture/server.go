package torture

// Crash-during-serving mode: instead of driving core handles directly, N
// clients push stamped region writes through a live server.Server (protocol
// framing, per-request handlers, the shard's group-commit batcher) while the
// shard's media is armed to tear mid-batch. After the crash the harness
// remounts the shard device and checks the acked-vs-unacked oracle:
//
//   - an acknowledged write must survive recovery (acks are sent only after
//     the group commit's WriteMulti returned, so a lost acked write means
//     the batcher acked before the metadata log was durable);
//   - a group-commit batch must not be half-applied (WriteMulti promises
//     all-or-nothing for the writes it coalesced, even across the crash).
//
// Batch membership comes from server.Config.CommitHook: the server reports
// every attempted WriteMulti with the first data word of each member, which
// is exactly the stamp the region would hold if that member landed.

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"mgsp/internal/core"
	"mgsp/internal/server"
	"mgsp/internal/server/client"
	"mgsp/internal/sim"
	"mgsp/internal/vfs"
)

// ServerConfig parametrizes one crash-during-serving run.
type ServerConfig struct {
	Clients    int   // concurrent client connections (default 4)
	Ops        int   // region writes per client (default 16)
	Regions    int   // shared-file regions (default 16)
	RegionSize int64 // bytes per region, multiple of 8 (default 512)
	Seed       int64 // workload + tear PRNG seed
	// CrashAt arms the shard device to tear the CrashAt-th media operation
	// issued after the clients are connected (so setup I/O never crashes).
	// 0 runs to a clean shutdown instead.
	CrashAt   int64
	DevSize   int64         // shard device size (default 8 MiB)
	BatchWait time.Duration // group-commit linger (default 200µs)
}

func (cfg ServerConfig) withDefaults() ServerConfig {
	if cfg.Clients == 0 {
		cfg.Clients = 4
	}
	if cfg.Ops == 0 {
		cfg.Ops = 16
	}
	if cfg.Regions == 0 {
		cfg.Regions = 16
	}
	if cfg.RegionSize == 0 {
		cfg.RegionSize = 512
	}
	if cfg.DevSize == 0 {
		cfg.DevSize = 8 << 20
	}
	if cfg.BatchWait == 0 {
		cfg.BatchWait = 200 * time.Microsecond
	}
	return cfg
}

func (cfg ServerConfig) check() error {
	if cfg.RegionSize%8 != 0 {
		return fmt.Errorf("torture: RegionSize %d not a multiple of 8", cfg.RegionSize)
	}
	if cfg.Clients > 0xFFFF || cfg.Ops > 0xFFFF || cfg.Regions > 0xFFFF {
		return fmt.Errorf("torture: Clients/Ops/Regions must fit the stamp's 16-bit fields")
	}
	return nil
}

func (cfg ServerConfig) reproLine() string {
	return fmt.Sprintf(
		"go test ./internal/torture -run 'TestServerTortureSweep$' (clients=%d ops=%d regions=%d seed=%d crash=%d)",
		cfg.Clients, cfg.Ops, cfg.Regions, cfg.Seed, cfg.CrashAt)
}

// ServerResult summarizes one crash-during-serving run.
type ServerResult struct {
	Crashed    bool
	Issued     int   // writes sent by clients
	Acked      int   // writes acknowledged (WriteAt returned nil)
	Commits    int   // WriteMulti group commits reported by the hook
	MediaOps   int64 // media ops between arming point and shutdown
	Violations []Violation
	Trace      string // recovered FS flight-recorder dump, only on violations
}

func (res *ServerResult) violate(cfg ServerConfig, kind string, region int, detail string) {
	res.Violations = append(res.Violations, Violation{
		Kind:   kind,
		Region: region,
		Detail: detail,
		Repro:  cfg.reproLine(),
	})
}

// ackRec is one client write and whether its ack arrived.
type ackRec struct {
	w, i, r int
	acked   bool
}

// RunServer executes one crash-during-serving run and verifies the oracle.
func RunServer(cfg ServerConfig) (*ServerResult, error) {
	cfg = cfg.withDefaults()
	if err := cfg.check(); err != nil {
		return nil, err
	}
	res := &ServerResult{}

	var recMu sync.Mutex
	var records []server.CommitRecord
	srv, err := server.New(server.Config{
		Shards:    1,
		DevSize:   cfg.DevSize,
		Seed:      cfg.Seed,
		BatchWait: cfg.BatchWait,
		CommitHook: func(rec server.CommitRecord) {
			recMu.Lock()
			records = append(records, rec)
			recMu.Unlock()
		},
	})
	if err != nil {
		return nil, err
	}

	// Setup phase (never crashes): connect the clients and open the shared
	// file before arming the fail point.
	const tenant = "tort"
	files := make([]*client.File, cfg.Clients)
	conns := make([]*client.Client, cfg.Clients)
	for w := range files {
		cc, sc := net.Pipe()
		go srv.ServeConn(sc)
		c, err := client.New(cc, tenant)
		if err != nil {
			return nil, fmt.Errorf("torture: client %d hello: %w", w, err)
		}
		conns[w] = c
		if files[w], err = c.Open("f", true); err != nil {
			return nil, fmt.Errorf("torture: client %d open: %w", w, err)
		}
	}

	dev := srv.Device(0)
	armBase := dev.Stats().MediaOps.Load()
	if cfg.CrashAt > 0 {
		dev.ArmCrash(cfg.CrashAt, cfg.Seed*31+cfg.CrashAt)
	}

	// Serving phase: every client writes stamped regions until done or until
	// the crash poisons the server. The ack ledger is the oracle's input —
	// a write counts as acked only once WriteAt has returned nil.
	acks := make([][]ackRec, cfg.Clients)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(w)*1099511628211))
			for i := 0; i < cfg.Ops; i++ {
				r := rng.Intn(cfg.Regions)
				img := stampImage(w, i, r, cfg.RegionSize)
				rec := ackRec{w: w, i: i, r: r}
				_, err := files[w].WriteAt(img, int64(r)*cfg.RegionSize)
				rec.acked = err == nil
				acks[w] = append(acks[w], rec)
				if err != nil {
					return // the crash (or shutdown) poisons everything after
				}
			}
		}(w)
	}
	wg.Wait()
	res.Crashed = dev.Crashed()
	if !res.Crashed {
		dev.DisarmCrash() // don't tear the clean shutdown's write-back
	}
	res.MediaOps = dev.Stats().MediaOps.Load() - armBase
	for _, c := range conns {
		c.Close()
	}
	if err := srv.Close(); err != nil && !errors.Is(err, server.ErrCrashed) {
		return nil, fmt.Errorf("torture: server close: %w", err)
	}
	for _, lst := range acks {
		for _, a := range lst {
			res.Issued++
			if a.acked {
				res.Acked++
			}
		}
	}

	// Remount the shard device the way a restarted mgspd would.
	if res.Crashed {
		dev.Recover()
	}
	rctx := newCtx(recoveryWorker, cfg.Seed)
	fs, err := core.Mount(rctx, dev, srv.FSOptions())
	if err != nil {
		res.violate(cfg, "mount", -1, fmt.Sprintf("recovery failed: %v", err))
		return res, nil
	}
	h, err := fs.Open(rctx, tenant+"/f")
	if err != nil {
		res.violate(cfg, "mount", -1, fmt.Sprintf("open after recovery: %v", err))
		return res, nil
	}
	defer h.Close(rctx)

	recMu.Lock()
	recs := records
	recMu.Unlock()
	verifyServed(cfg, res, recs, acks, func(r int) (uint64, bool) {
		return readRegion(rctx, h, cfg, r)
	})
	res.Trace = flightRecord(fs, res.Violations)
	return res, nil
}

// readRegion reads region r from the recovered file and folds it to a single
// stamp, reporting uniform=false if the region's 8-byte words disagree (a
// torn region). Bytes past EOF read as the initial zeros.
func readRegion(ctx *sim.Ctx, h vfs.File, cfg ServerConfig, r int) (uint64, bool) {
	buf := make([]byte, cfg.RegionSize)
	off := int64(r) * cfg.RegionSize
	if off < h.Size() {
		n := cfg.RegionSize
		if remain := h.Size() - off; remain < n {
			n = remain
		}
		if _, err := h.ReadAt(ctx, buf[:n], off); err != nil {
			return 0, false
		}
	}
	got := getLE64(buf)
	for o := int64(8); o < cfg.RegionSize; o += 8 {
		if getLE64(buf[o:]) != got {
			return 0, false
		}
	}
	return got, true
}

// verifyServed checks the acked-vs-unacked oracle against the recovered
// region contents. read returns region r's folded stamp and whether the
// region was uniform.
func verifyServed(cfg ServerConfig, res *ServerResult, records []server.CommitRecord,
	acks [][]ackRec, read func(r int) (uint64, bool)) {

	regionOf := func(op server.CommitOp) int { return int(op.Off / cfg.RegionSize) }

	// Replay the hook's total order (one shard, one batcher) to find what
	// each region must hold. lastDurable is the newest successfully
	// committed stamp; the first failed record is the WriteMulti the crash
	// interrupted — its members may or may not have landed, but atomically.
	lastDurable := make([]uint64, cfg.Regions) // 0 = initial zeros
	var inflight *server.CommitRecord
	for k := range records {
		rec := &records[k]
		if rec.Err == nil {
			res.Commits++
			for _, op := range rec.Ops {
				if op.Len != int(cfg.RegionSize) || op.Off%cfg.RegionSize != 0 {
					res.violate(cfg, "server-batch", regionOf(op),
						fmt.Sprintf("commit op off=%d len=%d not region-shaped", op.Off, op.Len))
					return
				}
				lastDurable[regionOf(op)] = op.Head
			}
			continue
		}
		if inflight == nil && errors.Is(rec.Err, server.ErrCrashed) {
			inflight = rec // first failure is the attempted, torn WriteMulti
		}
		// Later failed records were rejected before touching media; their
		// stamps must not appear anywhere (checked against expected below).
	}

	// An ack may only be sent for a write that appears in a successful
	// group commit — an ack without a durable commit is the bug the paper's
	// metadata-log flush ordering exists to prevent.
	committed := map[uint64]bool{}
	for _, rec := range records {
		if rec.Err == nil {
			for _, op := range rec.Ops {
				committed[op.Head] = true
			}
		}
	}
	for _, lst := range acks {
		for _, a := range lst {
			if a.acked && !committed[stamp(a.w, a.i, a.r)] {
				res.violate(cfg, "ack-without-commit", a.r,
					fmt.Sprintf("w%d/#%d->r%d acked but in no successful group commit", a.w, a.i, a.r))
			}
		}
	}

	// The in-flight batch must be all-or-nothing: every member's region
	// holds its stamp, or none does.
	inflightHead := make(map[int]uint64)
	if inflight != nil {
		applied, missing := 0, 0
		for _, op := range inflight.Ops {
			r := regionOf(op)
			inflightHead[r] = op.Head
			got, uniform := read(r)
			if uniform && got == op.Head {
				applied++
			} else {
				missing++
			}
		}
		if applied > 0 && missing > 0 {
			res.violate(cfg, "server-batch-torn", -1, fmt.Sprintf(
				"crashed WriteMulti half-applied: %d of %d members present",
				applied, applied+missing))
		}
	}

	// Per-region: uniform, and exactly the last durable stamp — or the
	// in-flight batch's member if the torn WriteMulti covered this region
	// and happened to land.
	for r := 0; r < cfg.Regions; r++ {
		got, uniform := read(r)
		if !uniform {
			res.violate(cfg, "torn-region", r, "region words disagree after recovery")
			continue
		}
		if got == lastDurable[r] {
			continue
		}
		if h, ok := inflightHead[r]; ok && got == h {
			continue
		}
		res.violate(cfg, "acked-lost", r, fmt.Sprintf(
			"region holds %#x, want %#x (last durable commit)%s",
			got, lastDurable[r], describeInflight(inflightHead, r)))
	}
}

func describeInflight(inflightHead map[int]uint64, r int) string {
	if h, ok := inflightHead[r]; ok {
		return fmt.Sprintf(" or %#x (in-flight batch)", h)
	}
	return ""
}
