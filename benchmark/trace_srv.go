package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"mgsp/internal/core"
	"mgsp/internal/sim"
)

// kvMerged is the server workload's traffic as one stream for the in-process
// replays: the slot-by-slot layout, then the issuers' streams interleaved
// round-robin (the order a fair server would see them in).
func kvMerged(streams [][]op) *libStream {
	ls := &libStream{fileSize: kvFileSize, devSize: 64 << 20}
	ls.ops = layoutOps(kvFileSize, kvSlotSize)
	ls.layout = len(ls.ops)
	merged := make([]op, 0, len(streams)*kvStreamLen)
	for i := 0; i < kvStreamLen; i++ {
		for _, st := range streams {
			merged = append(merged, st[i])
		}
	}
	ls.addStream(merged)
	return ls
}

// multiWriter is the group-commit entry point the server's batcher uses.
type multiWriter interface {
	WriteMulti(ctx *sim.Ctx, updates []core.Update) error
}

// batchedReplay drives count ops of the merged stream in-process the way
// the server does, minus the server: writes gathered into WriteMulti calls
// of the observed mean batch size (a batch also closes before a second write
// to one slot — updates of one call may not overlap), reads as ReadAt. It
// returns the wall microseconds one write and one read cost in core.
func (e *libEnv) batchedReplay(count, batch int) (writeUS, readUS float64, err error) {
	mw, ok := e.t.files[0].(multiWriter)
	if !ok {
		return 0, 0, fmt.Errorf("%T has no WriteMulti", e.t.files[0])
	}
	ctx, f := e.ctxs[0], e.t.files[0]
	rbuf := make([]byte, kvReadSize)
	var pending []core.Update
	inBatch := map[int64]bool{}
	var writeNS, readNS time.Duration
	var writes, reads int
	flush := func() error {
		if len(pending) == 0 {
			return nil
		}
		t0 := time.Now()
		err := mw.WriteMulti(ctx, pending)
		writeNS += time.Since(t0)
		pending = pending[:0]
		clear(inBatch)
		return err
	}
	for i := 0; i < count; i++ {
		idx := e.ls.base + i%e.ls.n
		o := &e.ls.ops[idx]
		if o.read {
			t0 := time.Now()
			_, err := f.ReadAt(ctx, rbuf, o.off)
			readNS += time.Since(t0)
			if err != nil {
				return 0, 0, err
			}
			reads++
			continue
		}
		if inBatch[o.off] {
			if err := flush(); err != nil {
				return 0, 0, err
			}
		}
		pending = append(pending, core.Update{Off: o.off, Data: e.pool[payloadAt(idx):][:o.size]})
		inBatch[o.off] = true
		writes++
		if len(pending) >= batch {
			if err := flush(); err != nil {
				return 0, 0, err
			}
		}
	}
	if err := flush(); err != nil {
		return 0, 0, err
	}
	return ratio(float64(writeNS)/1e3, float64(writes)), ratio(float64(readNS)/1e3, float64(reads)), nil
}

// traceSrv is the traced run of a server workload: a traced window (client
// spans, server and shard counter deltas), an untraced continuation, the
// read-back and recovery checks, then the same traffic replayed in-process
// against core and the layers beneath it, and the probes.
func traceSrv(s *spec, p *params) (*outcome, error) {
	out := newOutcome(s, p.seed, true)
	m := out.Metrics
	pool := newPool(p.seed)
	streams := kvStreams(s, p.seed)
	e, err := setupSrv(s, p.ramp(s), pool, streams)
	if err != nil {
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			e.close()
		}
	}()
	runtime.GC()
	window := time.Duration(float64(p.window()) * tracedShare)
	count := p.ops / 4 / s.workers

	epoch := time.Now()
	before := readCounters(e.srv.Snapshot)
	res := e.issue(window, count, 0, &epoch)
	d := readCounters(e.srv.Snapshot).since(before, "shard0.")
	cont := e.issue(window, count, int(res.ops)/s.workers, nil)
	tr := res.tr

	// Server-registry names carry no shard prefix.
	sd := &delta{d: d.d}
	acked := sd.v("server.writes_acked")
	// No per-op virtual time is visible through the protocol, so the MGL wait
	// share of it (sumVirtNS 0) reads 0.
	counterLayers(m, d, float64(res.ops), float64(res.reads), 0)
	m["server.batch_size_mean"] = sd.histMean("server.batch_size")
	m["server.meta_entries_per_ack"] = ratio(d.v("core.meta_entries"), acked)
	m["server.group_commits_per_ack"] = ratio(sd.v("server.group_commits"), acked)
	m["server.shed_frac"] = ratio(sd.v("server.shed"), float64(res.writes))
	m["server.delayed_frac"] = ratio(sd.v("server.delayed"), float64(res.writes))
	m["server.commit_virt_ns_per_ack"] = ratio(d.histSum("fs.writev_ns"), acked)
	wq, rq := res.ackWrite.quantiles(0.5, 0.99), res.ackRead.quantiles(0.5, 0.99)
	m["server.ack_write_p99_us"] = wq[1] / 1e3
	m["server.ack_read_p50_us"], m["server.ack_read_p99_us"] = rq[0]/1e3, rq[1]/1e3
	m["bench.trace_overhead_frac"] = 1 - ratio(res.wallOpsPerS(), cont.wallOpsPerS())

	if p.flip {
		e.shadow[0] ^= 1
	}
	bad, err := e.readBack()
	if err != nil {
		return nil, err
	}
	_, _, rec, err := newRecoverer(e.srv.FSOptions(), tr).sample(1, e.srv.Device(0), nil)
	if err != nil {
		return nil, err
	}
	badRec, err := verifyFile(rec.fs, kvKey, kvFileSize, e.expect)
	if err != nil {
		return nil, err
	}
	snap := rec.fs.Obs().Snapshot()
	m["core.mount_media_write_bytes"] = float64(rec.mediaWrite)
	m["core.mount_entries_replayed"] = snap.Values["core.entries_replayed"]
	m["core.mount_slots_bounded"] = snap.Values["core.recovery_slots_bounded"]
	// The server's close is the last close of every file: the write-back.
	t0 := time.Now()
	e.close()
	closed = true
	m["core.close_wall_ms"] = float64(time.Since(t0)) / 1e6
	m["core.close_virt_ms"] = 0             // the closing context's clock is the server's own
	m["core.log_blocks_per_file_block"] = 0 // not visible through the server's surface
	m["core.speedup_vs_1w"] = 0             // one batcher commits for everyone

	// The same traffic in-process: core alone, then the layers beneath it.
	ls := kvMerged(streams)
	n := int(res.ops)
	inproc, err := setupLib(s, 1, p.seed, pool, ls)
	if err != nil {
		return nil, err
	}
	core1 := inproc.measure(0, 0, n, true)
	classLayers(m, core1)
	m["core.write_allocs_per_op"], _ = inproc.allocsOver(ls.wseg)
	m["core.read_allocs_per_op"], _ = inproc.allocsOver(ls.rseg)
	batch := int(math.Max(1, math.Round(m["server.batch_size_mean"])))
	writeUS, readUS, err := inproc.batchedReplay(n, batch)
	if err != nil {
		return nil, err
	}
	m["server.core_replay_write_us"], m["server.core_replay_read_us"] = writeUS, readUS
	m["core.write_wall_ns"], m["core.read_wall_ns"] = writeUS*1e3, readUS*1e3

	rp := &replay{pool: pool, ops: ls.ops, warm: ls.layout, base: ls.base, n: ls.n,
		count: n, workers: 1, fileSize: kvFileSize, devSize: ls.devSize}
	coreNS := ratio(float64(core1.wallNS), float64(core1.ops))
	if err := rp.layers(m, core1.virtMiBps(), coreNS, ratio(float64(core1.sumVirtOpNS), float64(core1.ops))); err != nil {
		return nil, err
	}
	if err := runProbes(m, 1, kvReadSize); err != nil {
		return nil, err
	}
	// What the server adds to an ack beyond the socket and core: queueing,
	// linger, the ack itself.
	m["server.self_write_p50_us"] = wq[0]/1e3 - m["server.loopback_rtt_p50_us"] - writeUS
	m["server.self_read_p50_us"] = rq[0]/1e3 - m["server.loopback_rtt_p50_us"] - readUS

	path, err := tr.write(s.name)
	if err != nil {
		return nil, err
	}
	out.Notes = append(out.Notes, fmt.Sprintf("%d spans in %s (%d more did not fit)", len(tr.spans), path, tr.dropped))

	failed, mismatched := res.failed+cont.failed, res.mismatched+cont.mismatched
	out.Attempted, out.Failed = res.ops+cont.ops, failed
	out.Correct = failed == 0 && mismatched == 0 && bad == 0 && badRec == 0
	if !out.Correct {
		out.Notes = append(out.Notes, fmt.Sprintf("oracle: %d failed ops (%v), %d mismatching reads, %d mismatching bytes read back, %d after recovery",
			failed, res.firstErr, mismatched, bad, badRec))
	}
	out.Info["traced_wall_ops_per_s"] = res.wallOpsPerS()
	out.Info["untraced_wall_ops_per_s"] = cont.wallOpsPerS()
	out.Info["ack_write_p50_us"] = wq[0] / 1e3
	return out, nil
}
