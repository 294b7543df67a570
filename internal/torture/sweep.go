package torture

import (
	"fmt"
	"math/rand"
)

// SweepResult aggregates a crash-index sweep for one base configuration.
type SweepResult struct {
	Samples    int   // crash runs executed (a sampled sweep's completion run not counted)
	Crashed    int   // runs that actually hit the fail point
	Completed  int   // runs whose crash index landed past the workload
	TotalOps   int64 // sampled sweeps: media ops of the completion run (the sampling range)
	Violations []Violation
}

// runFunc executes run number s of a sweep, crashing at media op crashAt
// (0 = run to completion), and verifies its oracle.
type runFunc func(s int, crashAt int64) (*Result, error)

// sweep is the one crash-index loop behind every sweep: it runs each index
// next yields, until next reports false, and tallies the outcomes into res.
func (res *SweepResult) sweep(next func() (crashAt int64, ok bool), run runFunc) error {
	for s := 0; ; s++ {
		crashAt, ok := next()
		if !ok {
			return nil
		}
		r, err := run(s, crashAt)
		if err != nil {
			return fmt.Errorf("torture: crash run %d (crash=%d): %w", s, crashAt, err)
		}
		res.Samples++
		if r.Crashed {
			res.Crashed++
		} else {
			res.Completed++
		}
		res.Violations = append(res.Violations, r.Violations...)
	}
}

// sampled is the sampling sweep. Run 0 is a completion run: it measures the
// total media-op count that bounds the sampling range, and it verifies the
// oracle on the quiescent end state. Then `samples` runs crash at indices
// drawn uniformly from that range.
func sampled(samples int, sweepSeed int64, run runFunc) (*SweepResult, error) {
	r0, err := run(0, 0)
	if err != nil {
		return nil, fmt.Errorf("torture: completion run: %w", err)
	}
	if r0.MediaOps < 1 {
		return nil, fmt.Errorf("torture: completion run issued no media ops")
	}
	res := &SweepResult{TotalOps: r0.MediaOps, Violations: r0.Violations}
	rng := rand.New(rand.NewSource(sweepSeed))
	n := 0
	return res, res.sweep(func() (int64, bool) {
		n++
		return 1 + rng.Int63n(r0.MediaOps), n <= samples
	}, run)
}

// strided is the exhaustive sweep: it crashes at media ops 1, 1+stride,
// 1+2·stride, … until a run outlives the workload.
func strided(stride int64, run runFunc) (*SweepResult, error) {
	if stride < 1 {
		stride = 1
	}
	res := &SweepResult{}
	crashAt := 1 - stride
	return res, res.sweep(func() (int64, bool) {
		crashAt += stride
		return crashAt, res.Completed == 0
	}, run)
}

// Sweep torture-tests one configuration at `samples` sampled crash indices.
// The completion run is also the deterministic catch point for
// Config.InjectTorn, whose violation does not depend on where the crash
// lands.
func Sweep(cfg Config, samples int, sweepSeed int64) (*SweepResult, error) {
	return sampled(samples, sweepSeed, func(_ int, crashAt int64) (*Result, error) {
		c := cfg
		c.CrashAt = crashAt
		return Run(c)
	})
}

// ServerSweep is the crash-during-serving analogue of Sweep: the completion
// run also proves the clean shutdown path mounts back, and each crash run
// verifies the acked-vs-unacked oracle. The server path is wall-clock
// concurrent, so unlike serial torture the sampled index is not a
// bit-identical reproducer — the per-run ack ledger and commit hook make the
// oracle exact anyway.
func ServerSweep(cfg ServerConfig, samples int, sweepSeed int64) (*SweepResult, error) {
	return sampled(samples, sweepSeed, func(s int, crashAt int64) (*Result, error) {
		c := cfg
		c.Seed = cfg.Seed + int64(s)*613
		c.CrashAt = crashAt
		r, err := RunServer(c)
		if err != nil {
			return nil, err
		}
		return &Result{Crashed: r.Crashed, MediaOps: r.MediaOps, Violations: r.Violations}, nil
	})
}

// Replay re-executes one (seed, writers, ops, crash, torn, cache) point in
// serial mode. Serial runs are bit-identical functions of these parameters:
// the same media ops happen in the same order, the device tears the same 8
// bytes, and the oracle reaches the same verdict, which is what makes a
// Violation.Repro line a real reproducer.
func Replay(seed int64, writers, ops int, crashAt int64, injectTorn, cache bool) (*Result, error) {
	return Run(Config{
		Writers:    writers,
		Ops:        ops,
		Seed:       seed,
		CrashAt:    crashAt,
		InjectTorn: injectTorn,
		Cache:      cache,
		Serial:     true,
	})
}
