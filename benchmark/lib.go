package main

import (
	"fmt"
	"runtime"
	"time"

	"mgsp/internal/core"
	"mgsp/internal/nvm"
	"mgsp/internal/obs"
	"mgsp/internal/sim"
)

const dataFile = "data"

// crashSpacing is how many ops a library workload runs between two of a
// run's plug-pulls.
const crashSpacing = 8192

// segLen is the length of the single-kind segments the traced run counts
// allocations over (one of writes only, one of reads only).
const segLen = 10000

// libStream is the complete op array of a library workload — sequential
// pass, ramp, measured stream, then the two single-kind segments — with the
// oracle indexing into all of it.
type libStream struct {
	ops        []op
	layout     int // ops [0, layout) are the sequential pass
	base, n    int // ops [base, base+n) are the measured stream
	wseg, rseg int // starts of the write-only and read-only segments

	fileSize, devSize int64
	// unitSized: every op is a whole number of oracle units, so the oracle
	// can track it (the server's 256 B-1 KiB writes are not).
	unitSized bool
}

func libOps(s *spec, p *params) *libStream {
	ls := &libStream{fileSize: fileSize, devSize: libDevSize, unitSized: true}
	ls.ops = layoutOps(fileSize, s.layoutSize)
	ls.layout = len(ls.ops)
	ls.ops = append(ls.ops, s.genStream(p.seed, saltRamp, p.ramp(s), 0)...)
	ls.addStream(s.genStream(p.seed, saltMeasured, p.streamOps(s), 0))
	return ls
}

// addStream appends the measured stream and its two single-kind segments.
func (ls *libStream) addStream(stream []op) {
	ls.base, ls.n = len(ls.ops), len(stream)
	ls.ops = append(ls.ops, stream...)
	ls.wseg = len(ls.ops)
	ls.ops = append(ls.ops, segment(stream, false)...)
	ls.rseg = len(ls.ops)
	ls.ops = append(ls.ops, segment(stream, true)...)
}

// segment returns the first segLen ops of one kind. A stream without that
// kind lends the places of its other kind, so a write-only workload still
// gets read costs at the offsets and sizes it writes.
func segment(stream []op, read bool) []op {
	seg := make([]op, 0, segLen)
	for pass := 0; pass < 2 && len(seg) < segLen; pass++ {
		for _, o := range stream {
			if len(seg) == segLen {
				break
			}
			if o.read == read || pass == 1 {
				o.read = read
				seg = append(seg, o)
			}
		}
	}
	return seg
}

// libEnv is one formatted, laid-out and ramped MGSP instance with its
// workers, their handles and the oracle tracking every byte written.
type libEnv struct {
	dev    *nvm.Device
	fs     *core.FS
	t      *fileTarget
	ctxs   []*sim.Ctx
	pool   []byte
	ls     *libStream
	oracle *oracle
}

func mgspOptions(s *spec) core.Options {
	opts := core.DefaultOptions()
	opts.CacheFrames = s.cacheFrames
	return opts
}

func newCtxs(n int, seed int64) []*sim.Ctx {
	ctxs := make([]*sim.Ctx, n)
	for i := range ctxs {
		ctxs[i] = sim.NewCtx(i, seed+int64(i))
	}
	return ctxs
}

// setupLib formats a device, creates the file through worker 0 (so a
// one-worker run keeps the greedy-lock path a setup worker would forfeit),
// and runs the sequential pass and the ramp through the same schedule the
// measured window uses.
func setupLib(s *spec, workers int, seed int64, pool []byte, ls *libStream) (*libEnv, error) {
	dev := nvm.New(ls.devSize, sim.DefaultCosts())
	fs, err := core.New(dev, mgspOptions(s))
	if err != nil {
		return nil, err
	}
	e := &libEnv{dev: dev, fs: fs, ctxs: newCtxs(workers, seed), pool: pool, ls: ls}
	if e.t, err = openFileTarget(fs, e.ctxs, dataFile, s.fsync); err != nil {
		return nil, err
	}
	if ls.unitSized {
		e.oracle = newOracle(pool, ls.ops, ls.fileSize)
	}
	warm := e.pass(0, ls.base, ls.base)
	if warm.failed > 0 || warm.mismatched > 0 {
		return nil, fmt.Errorf("setup: %d failed, %d mismatched ops: %v", warm.failed, warm.mismatched, warm.firstErr)
	}
	return e, nil
}

// pass drives exactly count ops of ops[base:base+n], unmeasured company of
// the window: the warm-up, a single-kind segment.
func (e *libEnv) pass(base, n, count int) *result {
	return (&run{t: e.t, ctxs: e.ctxs, pool: e.pool, ops: e.ls.ops, base: base, n: n, count: count, oracle: e.oracle}).exec()
}

// measure drives the measured stream from its from-th op, for window of wall
// time or for exactly count ops.
func (e *libEnv) measure(from int, window time.Duration, count int, byKind bool) *result {
	return (&run{
		t: e.t, ctxs: e.ctxs, pool: e.pool, ops: e.ls.ops, base: e.ls.base, n: e.ls.n, from: from,
		oracle: e.oracle, byKind: byKind, window: window, count: count,
	}).exec()
}

// counters is a point-in-time reading of everything the benchmark takes
// deltas of at window boundaries.
type counters struct {
	obs *obs.Snapshot
	mem runtime.MemStats
}

func readCounters(snap func() *obs.Snapshot) *counters {
	c := &counters{obs: snap()}
	runtime.ReadMemStats(&c.mem)
	return c
}

// delta is a counter difference over a window, by registry name; prefix
// selects the server's shard ("shard0.") or nothing for a library FS.
type delta struct {
	d      *obs.Snapshot
	prefix string
	mem    struct{ mallocs, bytes float64 }
}

func (c *counters) since(before *counters, prefix string) *delta {
	d := &delta{d: c.obs.Diff(before.obs), prefix: prefix}
	d.mem.mallocs = float64(c.mem.Mallocs - before.mem.Mallocs)
	d.mem.bytes = float64(c.mem.TotalAlloc - before.mem.TotalAlloc)
	return d
}

func (d *delta) v(name string) float64       { return d.d.Values[d.prefix+name] }
func (d *delta) histSum(name string) float64 { return float64(d.d.Hists[d.prefix+name].Sum) }
func (d *delta) histMean(name string) float64 {
	h := d.d.Hists[d.prefix+name]
	return ratio(float64(h.Sum), float64(h.Count))
}

// timedSetups runs setup `repeats` times, returning the last instance (the
// measured window runs on it) and the median wall seconds.
func timedSetups[E any](repeats int, setup func() (E, error)) (E, float64, error) {
	var env E
	var secs []float64
	for i := 0; i < repeats; i++ {
		t0 := time.Now()
		e, err := setup()
		if err != nil {
			return env, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		env = e
	}
	return env, median(secs), nil
}

// runLib measures one library workload end to end (untraced).
func runLib(s *spec, p *params) (*outcome, error) {
	out := newOutcome(s, p.seed, false)
	pool := newPool(p.seed)
	ls := libOps(s, p)
	e, setupS, err := timedSetups(p.setups(s), func() (*libEnv, error) {
		return setupLib(s, s.workers, p.seed, pool, ls)
	})
	if err != nil {
		return nil, err
	}
	runtime.GC()

	before := readCounters(e.fs.Obs().Snapshot)
	res := e.measure(0, p.window(), p.ops, false)
	d := readCounters(e.fs.Obs().Snapshot).since(before, "")

	// Plug-pulls, crashSpacing ops apart (enough to rewrite the state a
	// recovery depends on), each recovered; the last is read back in full.
	next, mismatched := int(res.ops), res.mismatched
	virtMS, wallMS, rec, err := newRecoverer(mgspOptions(s), nil).sample(p.crashPoints(), e.dev, func() error {
		more := e.measure(next, 0, crashSpacing, false)
		next += crashSpacing
		mismatched += more.mismatched
		return more.firstErr
	})
	if err != nil {
		return nil, err
	}
	bad, err := verifyFile(rec.fs, dataFile, fileSize, p.expecting(e.oracle.expect))
	if err != nil {
		return nil, err
	}

	out.Attempted, out.Failed = res.ops, res.failed
	out.Correct = res.failed == 0 && mismatched == 0 && bad == 0
	if !out.Correct {
		out.Notes = append(out.Notes, fmt.Sprintf("oracle: %d failed ops (%v), %d mismatching reads, %d mismatching bytes after recovery",
			res.failed, res.firstErr, mismatched, bad))
	}
	m := out.Metrics
	m["setup_s"] = setupS
	m["wall_ops_per_s"] = res.wallOpsPerS()
	m["write_p50_us"] = res.wallWrite.quantiles(0.5)[0] / 1e3
	m["virt_mibps"] = res.virtMiBps()
	m["write_amp"] = ratio(d.v("nvm.media_write_bytes"), float64(res.writeBytes))
	m["allocs_per_op"] = d.mem.mallocs / float64(res.ops)
	m["alloc_bytes_per_op"] = d.mem.bytes / float64(res.ops)
	m["recover_virt_ms"] = virtMS
	m["recover_wall_ms"] = wallMS
	out.Samples["setup_s"] = int64(p.setups(s))
	out.Samples["wall_ops_per_s"] = int64(len(res.sliceRates))
	out.Samples["write_p50_us"] = res.wallWrite.count()
	out.Samples["recover_virt_ms"], out.Samples["recover_wall_ms"] = int64(p.crashPoints()), int64(p.crashPoints())
	q := res.virtAll.quantiles(0.5, 0.99)
	out.Info["virt_op_p50_ns"], out.Info["virt_op_p99_ns"] = q[0], q[1]
	out.Info["wall_ns_per_op"] = ratio(float64(res.wallNS), float64(res.ops))
	return out, nil
}
