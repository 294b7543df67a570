package torture

import (
	"fmt"
	"math/rand"
)

// SweepResult aggregates a crash-index sweep for one base configuration.
type SweepResult struct {
	Samples    int   // crash runs executed (completion run not counted)
	Crashed    int   // runs that actually hit the fail point
	Completed  int   // runs whose crash index landed past the workload
	TotalOps   int64 // media ops of the completion run (the sampling range)
	Violations []Violation
}

// Sweep torture-tests one configuration at `samples` crash indices drawn
// uniformly from the run's media-op range. Sample 0 is always a completion
// run: it measures the total media-op count that bounds the sampling range,
// and it verifies the oracle on the quiescent end state — which is also the
// deterministic catch point for Config.InjectTorn, whose violation does not
// depend on where the crash lands.
func Sweep(cfg Config, samples int, sweepSeed int64) (*SweepResult, error) {
	base := cfg
	base.CrashAt = 0
	r0, err := Run(base)
	if err != nil {
		return nil, fmt.Errorf("torture: completion run: %w", err)
	}
	res := &SweepResult{TotalOps: r0.MediaOps}
	res.Violations = append(res.Violations, r0.Violations...)
	if r0.MediaOps < 1 {
		return nil, fmt.Errorf("torture: completion run issued no media ops")
	}

	rng := rand.New(rand.NewSource(sweepSeed))
	for s := 0; s < samples; s++ {
		c := cfg
		c.CrashAt = 1 + rng.Int63n(r0.MediaOps)
		r, err := Run(c)
		if err != nil {
			return res, fmt.Errorf("torture: crash run (seed=%d crash=%d): %w", c.Seed, c.CrashAt, err)
		}
		res.Samples++
		if r.Crashed {
			res.Crashed++
		} else {
			res.Completed++
		}
		res.Violations = append(res.Violations, r.Violations...)
	}
	return res, nil
}

// ServerSweep is the crash-during-serving analogue of Sweep: one completion
// run measures the serving phase's media-op range (and proves the clean
// shutdown path mounts back), then `samples` runs crash at uniformly drawn
// indices and each verifies the acked-vs-unacked oracle. The server path is
// wall-clock concurrent, so unlike serial torture the sampled index is not a
// bit-identical reproducer — the per-run ack ledger and commit hook make the
// oracle exact anyway.
func ServerSweep(cfg ServerConfig, samples int, sweepSeed int64) (*SweepResult, error) {
	base := cfg
	base.CrashAt = 0
	r0, err := RunServer(base)
	if err != nil {
		return nil, fmt.Errorf("torture: server completion run: %w", err)
	}
	res := &SweepResult{TotalOps: r0.MediaOps}
	res.Violations = append(res.Violations, r0.Violations...)
	if r0.MediaOps < 1 {
		return nil, fmt.Errorf("torture: server completion run issued no media ops")
	}

	rng := rand.New(rand.NewSource(sweepSeed))
	for s := 0; s < samples; s++ {
		c := cfg
		c.Seed = cfg.Seed + int64(s)*613
		c.CrashAt = 1 + rng.Int63n(r0.MediaOps)
		r, err := RunServer(c)
		if err != nil {
			return res, fmt.Errorf("torture: server crash run (seed=%d crash=%d): %w", c.Seed, c.CrashAt, err)
		}
		res.Samples++
		if r.Crashed {
			res.Crashed++
		} else {
			res.Completed++
		}
		res.Violations = append(res.Violations, r.Violations...)
	}
	return res, nil
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
