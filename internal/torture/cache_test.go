package torture

import (
	"fmt"
	"testing"

	"mgsp/internal/core"
	"mgsp/internal/nvm"
	"mgsp/internal/sim"
)

// TestTortureCacheSweepConcurrent is the cache-active gate: 4 seeds x 50
// sampled crash indices (200 points, plus a completion run per seed) with the
// 8-frame write-through pool armed — 4 writer goroutines issuing optimistic
// frame reads and miss fills against committed-write patches and evictions.
// Zero violations allowed: no torn frame copy, no read-your-writes miss on
// the private regions, and recovery must explain every region by the strict
// per-region rule without ever depending on cache state.
func TestTortureCacheSweepConcurrent(t *testing.T) {
	const (
		seeds   = 4
		samples = 50
	)
	for s := 0; s < seeds; s++ {
		s := s
		t.Run(fmt.Sprintf("seed=%d", s), func(t *testing.T) {
			t.Parallel()
			cfg := Config{Writers: 4, Seed: int64(s), Cache: true}
			res, err := Sweep(cfg, samples, int64(s)*99991+23)
			if err != nil {
				t.Fatal(err)
			}
			if res.Samples != samples {
				t.Fatalf("ran %d samples, want %d", res.Samples, samples)
			}
			if res.Crashed == 0 {
				t.Fatalf("no sampled crash index hit the fail point (range %d)", res.TotalOps)
			}
			t.Logf("media-op range %d: %d crashed, %d completed past the workload",
				res.TotalOps, res.Crashed, res.Completed)
			for _, v := range res.Violations {
				t.Errorf("%s", v)
			}
		})
	}
}

// TestTortureCacheSweepSerial covers the deterministic mode with the cache
// armed: same oracle, single goroutine, seeded round-robin interleaving.
func TestTortureCacheSweepSerial(t *testing.T) {
	cfg := Config{Writers: 4, Seed: 13, Serial: true, Cache: true}
	res, err := Sweep(cfg, 25, 19)
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashed == 0 {
		t.Fatal("no sampled crash index hit the fail point")
	}
	for _, v := range res.Violations {
		t.Errorf("%s", v)
	}
}

// TestTortureCacheSerialDeterministic pins the replay contract for cache
// mode: two serial runs of the same parameters produce the same media-op
// stream and schedule, frame hits and miss fills included.
func TestTortureCacheSerialDeterministic(t *testing.T) {
	run := func() *Result {
		res, err := Replay(21, 4, 25, 200, false, true)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !a.Crashed || !b.Crashed {
		t.Fatalf("expected both runs to crash (a=%v b=%v); pick a smaller crash index", a.Crashed, b.Crashed)
	}
	if a.CrashOp != b.CrashOp || a.CrashWorker != b.CrashWorker || a.MediaOps != b.MediaOps {
		t.Fatalf("cache serial replay diverged: crashOp %d/%d, crashWorker %d/%d, mediaOps %d/%d",
			a.CrashOp, b.CrashOp, a.CrashWorker, b.CrashWorker, a.MediaOps, b.MediaOps)
	}
	if a.Schedule.String() != b.Schedule.String() {
		t.Fatalf("cache serial replay schedules diverged:\n%s\nvs\n%s", a.Schedule, b.Schedule)
	}
	failViolations(t, a)
}

// TestTortureCacheTracesRead proves the cache-mode workload actually
// exercises the read oracle: the generated traces must contain reads and
// private-region writes for every writer, and a completion run must come back
// clean.
func TestTortureCacheTracesRead(t *testing.T) {
	cfg := Config{Writers: 4, Seed: 2, Cache: true}.withDefaults()
	tr := traces(cfg)
	for w, ops := range tr {
		reads, privWrites := 0, 0
		for _, o := range ops {
			switch {
			case o.kind == opRead:
				reads++
			case o.kind == opWrite && o.regions[0] == cfg.privateRegion(w):
				privWrites++
			}
		}
		if reads == 0 {
			t.Errorf("writer %d trace has no reads", w)
		}
		if privWrites == 0 {
			t.Errorf("writer %d trace has no private-region writes", w)
		}
	}
	res, err := Run(Config{Writers: 4, Seed: 2, Cache: true})
	if err != nil {
		t.Fatal(err)
	}
	failViolations(t, res)
}

// TestVerifyCrashedCacheRunIsStrict: the cache is write-through, so a crash
// can never erase an acked write. A crashed cache-mode run whose region still
// shows the initial zeros after a completed, unsuperseded write must be
// reported as torn-region — the oracle grants cache runs no relaxation.
func TestVerifyCrashedCacheRunIsStrict(t *testing.T) {
	cfg := Config{Writers: 1, Seed: 4, Cache: true}.withDefaults()
	st := newState(cfg)
	const region = 3
	e := st.beginOp(0, 0, op{kind: opWrite, regions: []int{region}}, 0)
	st.sched.End(e.span, 1)

	// The "recovered" image: the file as laid out, the write nowhere in it.
	fs := core.MustNew(nvm.New(cfg.DevSize, sim.ZeroCosts()), cfg.Opts)
	ctx := sim.NewCtx(recoveryWorker, 1)
	h, err := fs.Create(ctx, fileName)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.WriteAt(ctx, make([]byte, cfg.fileSize()), 0); err != nil {
		t.Fatal(err)
	}

	res := &Result{Crashed: true}
	st.verify(cfg, res, ctx, fs, h)
	var torn []int
	for _, v := range res.Violations {
		if v.Kind != "torn-region" {
			t.Errorf("unexpected violation: %s", v)
			continue
		}
		torn = append(torn, v.Region)
	}
	if len(torn) != 1 || torn[0] != region {
		t.Fatalf("torn-region reports for regions %v, want exactly [%d]", torn, region)
	}
}
