package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// metricDef is one row of BENCHMARK.json. The tables below are the single
// source: `-manifest` prints BENCHMARK.json from them, a test checks the
// committed file still matches, and -compare applies the bounds.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	clock  string  // which clock the metric is on; README glossary and text output
}

// endToEnd are the metrics every workload reports on the untraced run. Each
// names its own clock: virt = modelled Optane time from sim.Ctx (exact for a
// fixed seed and op count), wall/host = what the Go implementation costs.
// The bound is how far the median may worsen before it is a regression. One
// bound serves all six workloads, so the least steady one sets it: each is at
// least three times the widest run-to-run spread (interquartile distance over
// median, ten seeds, three sets) seen on any workload — see README.md.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "wall"},
	{"wall_ops_per_s", "1/s", "higher", 0.18, "wall"},
	{"write_p50_us", "us", "lower", 0.12, "wall"},
	{"virt_mibps", "MiB/s", "higher", 0.05, "virt"},
	{"write_amp", "ratio", "lower", 0.02, "count"},
	{"allocs_per_op", "count", "lower", 0.08, "host"},
	{"alloc_bytes_per_op", "B", "lower", 0.05, "host"},
	{"recover_virt_ms", "ms", "lower", 0.12, "virt"},
	{"recover_wall_ms", "ms", "lower", 0.20, "wall"},
}

// perLayer are the metrics of single layers, reported by the traced run. A
// layer that is not on a workload's path reports 0.
var perLayer = []metricDef{
	// sim: direct-call probes at the workload's worker count.
	{Name: "sim.timeline_reserve_wall_ns", Unit: "ns", Better: "lower", clock: "wall"},
	{Name: "sim.mutex_pair_wall_ns", Unit: "ns", Better: "lower", clock: "wall"},
	{Name: "sim.rwmutex_pair_wall_ns", Unit: "ns", Better: "lower", clock: "wall"},
	// nvm: counter deltas over the traced window, per op.
	{Name: "nvm.media_write_bytes_per_op", Unit: "B", Better: "lower", clock: "count"},
	{Name: "nvm.media_read_bytes_per_op", Unit: "B", Better: "lower", clock: "count"},
	{Name: "nvm.fences_per_op", Unit: "count", Better: "lower", clock: "count"},
	{Name: "nvm.flushes_per_op", Unit: "count", Better: "lower", clock: "count"},
	{Name: "nvm.media_ops_per_op", Unit: "count", Better: "lower", clock: "count"},
	// nvm: the same stream as raw WriteNT+Fence / Read — the bandwidth ceiling.
	{Name: "nvm.replay_virt_mibps", Unit: "MiB/s", Better: "higher", clock: "virt"},
	{Name: "nvm.replay_wall_ns_per_op", Unit: "ns", Better: "lower", clock: "wall"},
	{Name: "nvm.replay_allocs_per_op", Unit: "count", Better: "lower", clock: "host"},
	{Name: "nvm.writent_128_wall_ns", Unit: "ns", Better: "lower", clock: "wall"},
	{Name: "nvm.writent_128_virt_ns", Unit: "ns", Better: "lower", clock: "virt"},
	{Name: "nvm.writent_4k_wall_ns", Unit: "ns", Better: "lower", clock: "wall"},
	// pmfile: the same stream as DirectWrite+Fence / DirectRead — DAX without consistency.
	{Name: "pmfile.replay_virt_mibps", Unit: "MiB/s", Better: "higher", clock: "virt"},
	{Name: "pmfile.replay_wall_ns_per_op", Unit: "ns", Better: "lower", clock: "wall"},
	{Name: "pmfile.replay_allocs_per_op", Unit: "count", Better: "lower", clock: "host"},
	{Name: "alloc.pair_wall_ns", Unit: "ns", Better: "lower", clock: "wall"},
	{Name: "alloc.pair_virt_ns", Unit: "ns", Better: "lower", clock: "virt"},
	// core: self time = untraced core per op minus the pmfile replay (the cost of consistency).
	{Name: "core.self_wall_ns_per_op", Unit: "ns", Better: "lower", clock: "wall"},
	{Name: "core.self_virt_ns_per_op", Unit: "ns", Better: "lower", clock: "virt"},
	{Name: "core.write_wall_ns", Unit: "ns", Better: "lower", clock: "wall"},
	{Name: "core.read_wall_ns", Unit: "ns", Better: "lower", clock: "wall"},
	{Name: "core.write_allocs_per_op", Unit: "count", Better: "lower", clock: "host"},
	{Name: "core.read_allocs_per_op", Unit: "count", Better: "lower", clock: "host"},
	{Name: "core.op_virt_p50_ns", Unit: "ns", Better: "lower", clock: "virt"},
	{Name: "core.op_virt_p99_ns", Unit: "ns", Better: "lower", clock: "virt"},
	{Name: "core.write_512_virt_p50_ns", Unit: "ns", Better: "lower", clock: "virt"},
	{Name: "core.write_4k_virt_p50_ns", Unit: "ns", Better: "lower", clock: "virt"},
	{Name: "core.write_256k_virt_p50_ns", Unit: "ns", Better: "lower", clock: "virt"},
	{Name: "core.read_4k_virt_p50_ns", Unit: "ns", Better: "lower", clock: "virt"},
	{Name: "core.write_virt_p99_ns", Unit: "ns", Better: "lower", clock: "virt"},
	{Name: "core.read_virt_p99_ns", Unit: "ns", Better: "lower", clock: "virt"},
	// core metadata log.
	{Name: "core.meta_entries_per_write", Unit: "count", Better: "lower", clock: "count"},
	{Name: "core.meta_cas_retries_per_write", Unit: "count", Better: "lower", clock: "count"},
	{Name: "core.meta_cursor_writes_per_write", Unit: "count", Better: "lower", clock: "count"},
	{Name: "core.mlog_probe_distance_mean", Unit: "count", Better: "lower", clock: "count"},
	// core MGL.
	{Name: "core.mgl_acquire_virt_ns_per_op", Unit: "ns", Better: "lower", clock: "virt"},
	{Name: "core.mgl_wait_virt_frac", Unit: "ratio", Better: "lower", clock: "virt"},
	{Name: "core.mgl_try_fails_per_op", Unit: "count", Better: "lower", clock: "count"},
	{Name: "core.mgl_intent_drops_per_op", Unit: "count", Better: "lower", clock: "count"},
	{Name: "core.greedy_ops_frac", Unit: "ratio", Better: "higher", clock: "count"},
	{Name: "core.greedy_demotions_per_op", Unit: "count", Better: "lower", clock: "count"},
	{Name: "core.descends_per_op", Unit: "count", Better: "lower", clock: "count"},
	// core MSL.
	{Name: "core.min_search_hit_ratio", Unit: "ratio", Better: "higher", clock: "count"},
	{Name: "core.toggle_to_log_frac", Unit: "ratio", Better: "higher", clock: "count"},
	{Name: "core.log_blocks_per_file_block", Unit: "ratio", Better: "lower", clock: "count"},
	// core reads.
	{Name: "core.opt_read_frac", Unit: "ratio", Better: "higher", clock: "count"},
	{Name: "core.opt_read_fallbacks_per_read", Unit: "count", Better: "lower", clock: "count"},
	{Name: "core.speedup_vs_1w", Unit: "ratio", Better: "higher", clock: "virt"},
	// core recovery and close.
	{Name: "core.mount_media_write_bytes", Unit: "B", Better: "lower", clock: "count"},
	{Name: "core.mount_entries_replayed", Unit: "count", Better: "lower", clock: "count"},
	{Name: "core.mount_slots_bounded", Unit: "count", Better: "higher", clock: "count"},
	{Name: "core.close_virt_ms", Unit: "ms", Better: "lower", clock: "virt"},
	{Name: "core.close_wall_ms", Unit: "ms", Better: "lower", clock: "wall"},
	// cache.
	{Name: "cache.hit_ratio", Unit: "ratio", Better: "higher", clock: "count"},
	{Name: "cache.evictions_per_op", Unit: "count", Better: "lower", clock: "count"},
	{Name: "cache.read_retry_per_read", Unit: "count", Better: "lower", clock: "count"},
	{Name: "cache.read_hit_wall_ns", Unit: "ns", Better: "lower", clock: "wall"},
	{Name: "cache.install_wall_ns", Unit: "ns", Better: "lower", clock: "wall"},
	{Name: "cache.patch_wall_ns", Unit: "ns", Better: "lower", clock: "wall"},
	{Name: "cache.replay_wall_ns_per_op", Unit: "ns", Better: "lower", clock: "wall"},
	{Name: "cache.replay_allocs_per_op", Unit: "count", Better: "lower", clock: "host"},
	// server: counters from srv.Snapshot(), client spans, differential replays.
	{Name: "server.batch_size_mean", Unit: "count", Better: "higher", clock: "count"},
	{Name: "server.meta_entries_per_ack", Unit: "count", Better: "lower", clock: "count"},
	{Name: "server.group_commits_per_ack", Unit: "count", Better: "lower", clock: "count"},
	{Name: "server.shed_frac", Unit: "ratio", Better: "lower", clock: "count"},
	{Name: "server.delayed_frac", Unit: "ratio", Better: "lower", clock: "count"},
	{Name: "server.commit_virt_ns_per_ack", Unit: "ns", Better: "lower", clock: "virt"},
	{Name: "server.ack_write_p99_us", Unit: "us", Better: "lower", clock: "wall"},
	{Name: "server.ack_read_p50_us", Unit: "us", Better: "lower", clock: "wall"},
	{Name: "server.ack_read_p99_us", Unit: "us", Better: "lower", clock: "wall"},
	{Name: "server.loopback_rtt_p50_us", Unit: "us", Better: "lower", clock: "wall"},
	{Name: "server.core_replay_write_us", Unit: "us", Better: "lower", clock: "wall"},
	{Name: "server.core_replay_read_us", Unit: "us", Better: "lower", clock: "wall"},
	{Name: "server.self_write_p50_us", Unit: "us", Better: "lower", clock: "wall"},
	{Name: "server.self_read_p50_us", Unit: "us", Better: "lower", clock: "wall"},
	// baselines: MGSP's virtual throughput over each baseline's on the same stream.
	{Name: "paper.speedup_vs_ext4dax", Unit: "ratio", Better: "higher", clock: "virt"},
	{Name: "paper.speedup_vs_nova", Unit: "ratio", Better: "higher", clock: "virt"},
	{Name: "paper.speedup_vs_libnvmmio", Unit: "ratio", Better: "higher", clock: "virt"},
	// harness.
	{Name: "bench.trace_overhead_frac", Unit: "ratio", Better: "lower", clock: "wall"},
	{Name: "bench.driver_wall_ns_per_op", Unit: "ns", Better: "lower", clock: "wall"},
}

// runSeconds is how long one run measures under the driver's contract.
const runSeconds = 8

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string    `json:"command"`
	Paths      []string    `json:"paths"`
	RunSeconds int         `json:"run_seconds"`
	Workloads  []workload  `json:"workloads"`
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []metricDef `json:"per_layer"` // no bound: omitted when 0
}

type workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func writeManifest(w io.Writer) error {
	m := manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, s := range specs {
		m.Workloads = append(m.Workloads, workload{s.name, s.why})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// outcome is one run of one workload.
type outcome struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	// Samples is how many observations stand behind a metric, where that is
	// not the op count (latency quantiles, slice medians, repeated mounts).
	Samples map[string]int64 `json:"samples,omitempty"`
	// Info are readings printed for the reader but outside the contract's
	// metric sets (e.g. virtual latency quantiles of the untraced run).
	Info  map[string]float64 `json:"info,omitempty"`
	Notes []string           `json:"notes,omitempty"`
}

func newOutcome(s *spec, seed int64, trace bool) *outcome {
	return &outcome{
		Workload: s.name, Seed: seed, Trace: trace,
		Metrics: map[string]float64{}, Samples: map[string]int64{}, Info: map[string]float64{},
	}
}

func (o *outcome) defs() []metricDef {
	if o.Trace {
		return perLayer
	}
	return endToEnd
}

// contractLine is the one JSON object the driver reads from the last line of
// standard output.
func (o *outcome) contractLine() (string, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{o.Correct, o.Attempted, o.Failed, map[string]mv{}}
	for _, d := range o.defs() {
		v, ok := o.Metrics[d.Name]
		if !ok {
			return "", fmt.Errorf("%s: metric %s was not measured", o.Workload, d.Name)
		}
		line.Metrics[d.Name] = mv{v, d.Unit}
	}
	b, err := json.Marshal(line)
	return string(b), err
}

// print renders the outcome for a reader: every metric by name with its
// unit, clock and sample count.
func (o *outcome) print(w io.Writer) {
	kind := "end-to-end (untraced)"
	if o.Trace {
		kind = "per-layer (traced)"
	}
	fmt.Fprintf(w, "== %s  seed=%d  %s  attempted=%d failed=%d correct=%v\n",
		o.Workload, o.Seed, kind, o.Attempted, o.Failed, o.Correct)
	for _, d := range o.defs() {
		fmt.Fprintf(w, "  %-36s %16.4f %-6s [%s]", d.Name, o.Metrics[d.Name], d.Unit, d.clock)
		if n, ok := o.Samples[d.Name]; ok {
			fmt.Fprintf(w, " n=%d", n)
		} else if !o.Trace {
			fmt.Fprintf(w, " n=%d", o.Attempted)
		}
		fmt.Fprintln(w)
	}
	keys := make([]string, 0, len(o.Info))
	for k := range o.Info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %-36s %16.4f (info)\n", k, o.Info[k])
	}
	for _, n := range o.Notes {
		fmt.Fprintf(w, "  note: %s\n", strings.TrimSpace(n))
	}
}
