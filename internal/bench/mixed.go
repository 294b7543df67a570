package bench

import (
	"fmt"

	"mgsp/internal/core"
	"mgsp/internal/fio"
	"mgsp/internal/nvm"
	"mgsp/internal/obs"
	"mgsp/internal/sim"
)

// mixedRatios are the write percentages of the fig9-shaped sweep: the read
// share runs 90% down to 10%, covering the ≥50%-read regime where the cache
// tier has to show its step-up.
var mixedRatios = []int{10, 30, 50, 70, 90}

// cacheMetricKeys are the cache-tier counters exported per cell.
var cacheMetricKeys = []string{
	"cache.hits", "cache.misses", "cache.evictions",
}

// Mixed runs the read/write-ratio sweep (the fig9 shape) across two
// configurations per ratio — no cache and the write-through cache — each on
// a fresh MGSP instance, and reports MiB/s per cell. The
// cache is sized to the working set (FileSize/4096 frames) so the sweep
// measures the protocol cost, not capacity misses; per-cell cache counters
// and fs.read_ns histograms ride along in the JSON report keyed
// "mixed-w<ratio>/<variant>/<metric>".
func Mixed(sc Scale) (*Table, map[string]float64, map[string]obs.HistSnapshot, error) {
	type variant struct {
		name string
		opts core.Options
	}
	frames := int(sc.FileSize / 4096)
	wt := core.DefaultOptions()
	wt.CacheFrames = frames
	variants := []variant{
		{"MGSP", core.DefaultOptions()},
		{"+cache", wt},
	}
	threads := sc.MaxThreads
	if threads > 4 {
		threads = 4
	}

	rows := make([]string, len(mixedRatios))
	for i, wr := range mixedRatios {
		rows[i] = fmt.Sprintf("r%d/w%d", 100-wr, wr)
	}
	cols := make([]string, len(variants))
	for j, v := range variants {
		cols[j] = v.name
	}
	t := NewTable("mixed", "mixed read/write sweep, 4 KiB random (fig9 shape): cache off / write-through cache",
		"MiB/s", cols, rows)
	metrics := make(map[string]float64)
	hists := make(map[string]obs.HistSnapshot)

	for i, wr := range mixedRatios {
		for j, v := range variants {
			fs := core.MustNew(nvm.New(devSizeFor(sc.FileSize), sim.DefaultCosts()), v.opts)
			res, err := fio.Run(fs, fio.Config{
				Op:           fio.Mixed,
				WriteRatio:   wr,
				FileSize:     sc.FileSize,
				BS:           4096,
				Threads:      threads,
				OpsPerThread: sc.Ops,
				Seed:         1000 + int64(i),
			})
			if err != nil {
				return nil, nil, nil, err
			}
			t.Cells[i][j] = res.ThroughputMBps()

			snap := fs.Obs().Snapshot()
			key := fmt.Sprintf("mixed-w%d/%s", wr, v.name)
			metrics[key+"/wa.ratio"] = res.WriteAmplification()
			if v.opts.CacheFrames > 0 {
				for _, k := range cacheMetricKeys {
					metrics[key+"/"+k] = snap.Values[k]
				}
			}
			if h, ok := snap.Hists["fs.read_ns"]; ok && h.Count > 0 {
				hists[key+"/fs.read_ns"] = h
			}
			live.Store(snap)
			liveRing.Store(fs.TraceRing())
		}
	}
	t.Notes = append(t.Notes,
		"per-cell cache counters and fs.read_ns histograms ride in the -json report",
		"cache sized to the working set")
	return t, metrics, hists, nil
}
