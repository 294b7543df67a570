package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"
)

// tracedShare is the part of -seconds (or of -ops) the traced window gets;
// the untraced continuation gets the same again, the replays the rest.
const tracedShare = 0.25

// counterLayers fills the metrics that are counter deltas over the traced
// window: nvm traffic per op, the metadata log, MGL, MSL, the read paths and
// the cache. sumVirtNS is the window's summed per-op virtual time.
func counterLayers(m map[string]float64, d *delta, ops, reads, sumVirtNS float64) {
	m["nvm.media_write_bytes_per_op"] = d.v("nvm.media_write_bytes") / ops
	m["nvm.media_read_bytes_per_op"] = d.v("nvm.media_read_bytes") / ops
	m["nvm.fences_per_op"] = d.v("nvm.fences") / ops
	m["nvm.flushes_per_op"] = d.v("nvm.flushes") / ops
	m["nvm.media_ops_per_op"] = d.v("nvm.media_ops") / ops

	commits := d.v("core.writes") // WriteAt and WriteMulti calls: one commit each
	m["core.meta_entries_per_write"] = ratio(d.v("core.meta_entries"), commits)
	m["core.meta_cas_retries_per_write"] = ratio(d.v("core.meta_cas_retries"), commits)
	m["core.meta_cursor_writes_per_write"] = ratio(d.v("core.meta_cursor_writes"), commits)
	m["core.mlog_probe_distance_mean"] = d.histMean("mlog.probe_distance")

	m["core.mgl_acquire_virt_ns_per_op"] = d.histSum("mgl.acquire_ns") / ops
	m["core.mgl_wait_virt_frac"] = ratio(d.histSum("mgl.acquire_ns"), sumVirtNS)
	m["core.mgl_try_fails_per_op"] = d.v("core.mgl_try_fails") / ops
	m["core.mgl_intent_drops_per_op"] = d.v("core.mgl_intent_drops") / ops
	m["core.greedy_ops_frac"] = d.v("core.greedy_ops") / ops
	m["core.greedy_demotions_per_op"] = d.v("core.greedy_demotions") / ops
	m["core.descends_per_op"] = d.v("core.descends") / ops

	m["core.min_search_hit_ratio"] = ratio(d.v("core.min_search_hits"), d.v("core.min_search_hits")+d.v("core.min_search_misses"))
	m["core.toggle_to_log_frac"] = ratio(d.v("core.toggle_to_log"), d.v("core.toggle_to_log")+d.v("core.toggle_to_fallback"))
	m["core.opt_read_frac"] = ratio(d.v("core.opt_reads"), reads)
	m["core.opt_read_fallbacks_per_read"] = ratio(d.v("core.opt_read_fallbacks"), reads)

	m["cache.hit_ratio"] = ratio(d.v("cache.hits"), d.v("cache.hits")+d.v("cache.misses"))
	m["cache.evictions_per_op"] = d.v("cache.evictions") / ops
	m["cache.read_retry_per_read"] = ratio(d.v("cache.read_retry"), reads)
}

// classLayers fills the virtual latency quantiles by kind and size class.
func classLayers(m map[string]float64, res *result) {
	q := res.virtAll.quantiles(0.5, 0.99)
	m["core.op_virt_p50_ns"], m["core.op_virt_p99_ns"] = q[0], q[1]
	m["core.write_512_virt_p50_ns"] = res.byClass[classW512].quantiles(0.5)[0]
	m["core.write_4k_virt_p50_ns"] = res.byClass[classW4K].quantiles(0.5)[0]
	m["core.write_256k_virt_p50_ns"] = res.byClass[classW256K].quantiles(0.5)[0]
	m["core.read_4k_virt_p50_ns"] = res.byClass[classR4K].quantiles(0.5)[0]
	m["core.write_virt_p99_ns"] = res.virtWrite.quantiles(0.99)[0]
	m["core.read_virt_p99_ns"] = res.virtRead.quantiles(0.99)[0]
}

// zeroServerLayers marks the server layer as not on a library workload's path.
func zeroServerLayers(m map[string]float64) {
	for _, d := range perLayer {
		if strings.HasPrefix(d.Name, "server.") {
			if _, ok := m[d.Name]; !ok {
				m[d.Name] = 0
			}
		}
	}
}

// allocsOver counts heap allocations per op over one single-kind segment.
func (e *libEnv) allocsOver(seg int) (float64, *result) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	res := e.pass(seg, segLen, segLen)
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / segLen, res
}

// traceLib is the traced run of a library workload: a traced window for
// spans and counter deltas, an untraced continuation for the tracing
// overhead and core's self cost, then recovery, close, replays and probes.
func traceLib(s *spec, p *params) (*outcome, error) {
	out := newOutcome(s, p.seed, true)
	m := out.Metrics
	pool := newPool(p.seed)
	ls := libOps(s, p)
	e, err := setupLib(s, s.workers, p.seed, pool, ls)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	window := time.Duration(float64(p.window()) * tracedShare)
	count := p.ops / 4

	tr := newTracer(time.Now(), maxSpans)
	e.t.tr = tr
	before := readCounters(e.fs.Obs().Snapshot)
	res := e.measure(0, window, count, true)
	d := readCounters(e.fs.Obs().Snapshot).since(before, "")
	e.t.tr = nil
	logBlocks := e.fs.LogBlocks()
	cont := e.measure(int(res.ops), window, count, false)

	counterLayers(m, d, float64(res.ops), float64(res.reads), float64(res.sumVirtOpNS))
	classLayers(m, res)
	m["core.log_blocks_per_file_block"] = float64(logBlocks) / (fileSize / blockSize)
	m["core.write_wall_ns"] = tr.meanWallNS(spanCoreWrite)
	m["core.read_wall_ns"] = tr.meanWallNS(spanCoreRead)
	m["bench.trace_overhead_frac"] = 1 - ratio(res.wallOpsPerS(), cont.wallOpsPerS())

	wAllocs, wres := e.allocsOver(ls.wseg)
	rAllocs, rres := e.allocsOver(ls.rseg)
	m["core.write_allocs_per_op"], m["core.read_allocs_per_op"] = wAllocs, rAllocs
	if m["core.read_wall_ns"] == 0 { // a write-only stream: the read segment is the only reading
		m["core.read_wall_ns"] = ratio(float64(rres.wallNS), float64(rres.ops))
	}

	// What a plug-pull now would cost to recover (one traced mount of the
	// durable image), then the clean close the traced run ends with.
	_, _, rec, err := newRecoverer(mgspOptions(s), tr).sample(1, e.dev, nil)
	if err != nil {
		return nil, err
	}
	snap := rec.fs.Obs().Snapshot()
	m["core.mount_media_write_bytes"] = float64(rec.mediaWrite)
	m["core.mount_entries_replayed"] = snap.Values["core.entries_replayed"]
	m["core.mount_slots_bounded"] = snap.Values["core.recovery_slots_bounded"]

	t0 := time.Now()
	for i, f := range e.t.files {
		ctx := e.ctxs[i]
		sp := tr.begin(spanCoreClose, 0, i, ctx.Now())
		if err := f.Close(ctx); err != nil {
			return nil, fmt.Errorf("close: %w", err)
		}
		tr.end(sp, ctx.Now(), 0)
	}
	m["core.close_wall_ms"] = float64(time.Since(t0)) / 1e6
	m["core.close_virt_ms"] = float64(tr.totals[spanCoreClose].virtNS) / 1e6
	bad, err := verifyFile(e.fs, dataFile, fileSize, p.expecting(e.oracle.expect))
	if err != nil {
		return nil, err
	}

	// One worker on a fresh instance: how much the workers scale.
	m["core.speedup_vs_1w"] = 1
	if s.workers > 1 {
		one, err := setupLib(s, 1, p.seed, pool, ls)
		if err != nil {
			return nil, err
		}
		m["core.speedup_vs_1w"] = ratio(res.virtMiBps(), one.measure(0, 0, int(res.ops), false).virtMiBps())
	}

	rp := &replay{pool: pool, ops: ls.ops, warm: ls.layout, base: ls.base, n: ls.n,
		count: int(res.ops), workers: s.workers, fileSize: fileSize, devSize: libDevSize}
	coreNS := ratio(float64(cont.wallNS), float64(cont.ops))
	if err := rp.layers(m, res.virtMiBps(), coreNS, ratio(float64(res.sumVirtOpNS), float64(res.ops))); err != nil {
		return nil, err
	}
	if err := runProbes(m, s.workers, s.layoutSize); err != nil {
		return nil, err
	}
	zeroServerLayers(m)

	path, err := tr.write(s.name)
	if err != nil {
		return nil, err
	}
	out.Notes = append(out.Notes, fmt.Sprintf("%d spans in %s (%d more did not fit)", len(tr.spans), path, tr.dropped))

	failed := res.failed + cont.failed + wres.failed + rres.failed
	mismatched := res.mismatched + cont.mismatched + wres.mismatched + rres.mismatched
	out.Attempted, out.Failed = res.ops+cont.ops+wres.ops+rres.ops, failed
	out.Correct = failed == 0 && mismatched == 0 && bad == 0
	if !out.Correct {
		out.Notes = append(out.Notes, fmt.Sprintf("oracle: %d failed ops (%v), %d mismatching reads, %d mismatching bytes after close",
			failed, res.firstErr, mismatched, bad))
	}
	out.Info["traced_wall_ops_per_s"] = res.wallOpsPerS()
	out.Info["untraced_wall_ops_per_s"] = cont.wallOpsPerS()
	out.Info["virt_mibps"] = res.virtMiBps()
	return out, nil
}
