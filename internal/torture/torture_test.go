package torture

import (
	"flag"
	"fmt"
	"testing"
)

// Flags let a Violation.Repro line drive TestTortureReplay directly:
//
//	go test ./internal/torture -run 'TestTortureReplay$' -torture.seed=7 ...
var (
	replaySeed    = flag.Int64("torture.seed", 0, "replay: trace seed")
	replayWriters = flag.Int("torture.writers", 4, "replay: writer count")
	replayOps     = flag.Int("torture.ops", 25, "replay: ops per writer")
	replayCrash   = flag.Int64("torture.crash", 0, "replay: media-op crash index (0 = run to completion)")
	replayTorn    = flag.Bool("torture.torn", false, "replay: inject the deliberate torn write")
	replayCache   = flag.Bool("torture.cache", false, "replay: run with the write-through frame cache armed")
)

func failViolations(t *testing.T, res *Result) {
	t.Helper()
	for _, v := range res.Violations {
		t.Errorf("%s", v)
	}
	if t.Failed() && res.Schedule != nil {
		t.Logf("schedule:\n%s", res.Schedule)
	}
	if t.Failed() && res.Trace != "" {
		t.Logf("flight recorder:\n%s", res.Trace)
	}
}

// TestTortureReplay executes exactly one serial run from the flags above.
// It is the target of every repro line: a violation found anywhere replays
// here bit-identically and fails the test with the same report.
func TestTortureReplay(t *testing.T) {
	res, err := Replay(*replaySeed, *replayWriters, *replayOps, *replayCrash, *replayTorn, *replayCache)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("crashed=%v crashOp=%d crashWorker=%d mediaOps=%d ops=%d/%d",
		res.Crashed, res.CrashOp, res.CrashWorker, res.MediaOps, res.OpsCompleted, res.OpsStarted)
	failViolations(t, res)
}

// TestTortureSweepConcurrent is the main gate: 4 seeds x 50 sampled crash
// indices (plus a completion run per seed), 4 real writer goroutines racing
// on the live lock paths, zero oracle violations allowed. Run it with -race.
func TestTortureSweepConcurrent(t *testing.T) {
	const (
		seeds   = 4
		samples = 50
	)
	for s := 0; s < seeds; s++ {
		s := s
		t.Run(fmt.Sprintf("seed=%d", s), func(t *testing.T) {
			t.Parallel()
			cfg := Config{Writers: 4, Seed: int64(s)}
			res, err := Sweep(cfg, samples, int64(s)*99991+17)
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

// TestTortureSweepManyCore is the many-core gate for the per-worker home
// areas: 8 and 16 racing writers (each with its own metadata-log home area
// and allocator shard), 100 sampled crash indices per width — 200 points
// total — with the full op-atomicity, snapshot, and allocator-audit oracle
// after every recovery. Recovery must stitch every worker's area: a missed
// area would surface here as a lost committed write.
func TestTortureSweepManyCore(t *testing.T) {
	const samples = 100
	for _, writers := range []int{8, 16} {
		writers := writers
		t.Run(fmt.Sprintf("writers=%d", writers), func(t *testing.T) {
			t.Parallel()
			cfg := Config{Writers: writers, Seed: int64(writers) * 131}
			res, err := Sweep(cfg, samples, int64(writers)*99991+29)
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

// TestTortureSerialDeterministicManyCore extends the replay contract to 16
// writers: with per-worker home slots every writer appends through its own
// area cursor, and the serial schedule must still be a pure function of
// (seed, writers, crash) — same media-op stream, same crash placement, same
// schedule, run after run.
func TestTortureSerialDeterministicManyCore(t *testing.T) {
	run := func() *Result {
		res, err := Replay(77, 16, 25, 900, false, false)
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
		t.Fatalf("serial replay diverged: crashOp %d/%d, crashWorker %d/%d, mediaOps %d/%d",
			a.CrashOp, b.CrashOp, a.CrashWorker, b.CrashWorker, a.MediaOps, b.MediaOps)
	}
	if a.Schedule.String() != b.Schedule.String() {
		t.Fatalf("serial replay schedules diverged:\n%s\nvs\n%s", a.Schedule, b.Schedule)
	}
	failViolations(t, a)
}

// TestTortureSweepSerial covers the deterministic mode's crash/remount path
// across sampled indices: same oracle, single goroutine, seeded round-robin
// interleaving.
func TestTortureSweepSerial(t *testing.T) {
	cfg := Config{Writers: 4, Seed: 11, Serial: true}
	res, err := Sweep(cfg, 25, 7)
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

// TestTortureSerialDeterministic proves the replay contract: two serial
// runs of the same (seed, writers, crash) parameters produce the same
// media-op stream, crash the same worker at the same device-lifetime op,
// and leave the same schedule.
func TestTortureSerialDeterministic(t *testing.T) {
	run := func() *Result {
		res, err := Replay(42, 4, 25, 300, false, false)
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
		t.Fatalf("serial replay diverged: crashOp %d/%d, crashWorker %d/%d, mediaOps %d/%d",
			a.CrashOp, b.CrashOp, a.CrashWorker, b.CrashWorker, a.MediaOps, b.MediaOps)
	}
	if a.Schedule.String() != b.Schedule.String() {
		t.Fatalf("serial replay schedules diverged:\n%s\nvs\n%s", a.Schedule, b.Schedule)
	}
	failViolations(t, a)
}

// TestTortureCatchesInjectedTear proves the oracle is live: a deliberately
// torn write (half a region applied, whole region claimed) is detected, its
// violation carries a replayable repro line, and two replays of that line's
// parameters reproduce the identical report.
func TestTortureCatchesInjectedTear(t *testing.T) {
	res, err := Replay(5, 4, 25, 0, true, false)
	if err != nil {
		t.Fatal(err)
	}
	var torn *Violation
	for i, v := range res.Violations {
		if v.Kind == "torn-region" {
			torn = &res.Violations[i]
			break
		}
	}
	if torn == nil {
		t.Fatalf("injected torn write not detected; violations: %v", res.Violations)
	}
	if torn.Region != 12 {
		t.Errorf("tear detected in region %d, want the reserved region 12", torn.Region)
	}
	if torn.Repro == "" {
		t.Fatal("violation carries no repro line")
	}
	t.Logf("caught: %s", torn)

	// The repro line replays bit-identically.
	again, err := Replay(5, 4, 25, 0, true, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(again.Violations) != len(res.Violations) {
		t.Fatalf("replay found %d violations, first run %d", len(again.Violations), len(res.Violations))
	}
	for i := range again.Violations {
		if again.Violations[i] != res.Violations[i] {
			t.Fatalf("replay violation %d differs:\n%s\nvs\n%s", i, again.Violations[i], res.Violations[i])
		}
	}
	if again.MediaOps != res.MediaOps {
		t.Fatalf("replay media-op stream differs: %d vs %d", again.MediaOps, res.MediaOps)
	}
}

// TestTortureConcurrentInjectedTear checks the concurrent path also catches
// the injection — the reserved region makes the violation independent of
// the Go scheduler's interleaving.
func TestTortureConcurrentInjectedTear(t *testing.T) {
	res, err := Run(Config{Writers: 4, Seed: 5, InjectTorn: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		if v.Kind == "torn-region" {
			t.Logf("caught: %s", v)
			return
		}
	}
	t.Fatalf("injected torn write not detected; violations: %v", res.Violations)
}

// TestTortureWorkerAttribution checks the per-writer media-op accounting
// the nvm layer exports: every writer that ran issued media ops, and the
// per-worker sum matches the device total.
func TestTortureWorkerAttribution(t *testing.T) {
	res, err := Run(Config{Writers: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	failViolations(t, res)
	var sum int64
	for _, n := range res.WorkerOps {
		sum += n
	}
	if sum != res.MediaOps {
		t.Fatalf("per-worker ops sum %d != device total %d", sum, res.MediaOps)
	}
	for w := 0; w < 4; w++ {
		if res.WorkerOps[w] == 0 {
			t.Errorf("writer %d attributed no media ops", w)
		}
	}
}
