// Command benchmark is the repository's two-clock, per-layer benchmark: the
// one every later performance or simplicity change is judged by. See
// README.md in this directory and BENCHMARK.json at the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workloadF = flag.String("workload", "", "run one workload and end with the contract's JSON line (default: all, as a table)")
		seed      = flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds   = flag.Float64("seconds", runSeconds, "wall seconds one run measures")
		traceF    = flag.String("trace", "0", "1: traced run reporting the per-layer metrics (also -trace=true)")
		scale     = flag.String("scale", "full", "full: measure for -seconds; smoke: a small fixed op count per workload")
		opsF      = flag.Int("ops", 0, "measure exactly this many ops instead of for -seconds (virtual results then repeat exactly)")
		jsonOut   = flag.String("json", "", "write the runs' results to this file")
		repeat    = flag.Int("repeat", 1, "run every selected workload this many times (seed, seed+1, ...)")
		compareF  = flag.Bool("compare", false, "compare two result files given as arguments: ok / regressed / unresolved per workload x metric")
		manifestF = flag.Bool("manifest", false, "print BENCHMARK.json from the metric tables and exit")
	)
	flag.Parse()

	switch {
	case *manifestF:
		if err := writeManifest(os.Stdout); err != nil {
			return fail(err)
		}
		return 0
	case *compareF:
		if flag.NArg() != 2 {
			return fail(fmt.Errorf("-compare wants two result files"))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			return fail(err)
		}
		if regressed {
			return 1
		}
		return 0
	}

	trace := *traceF == "1" || strings.EqualFold(*traceF, "true")
	selected := specs
	if *workloadF != "" {
		s, err := specByName(*workloadF)
		if err != nil {
			return fail(err)
		}
		selected = []*spec{s}
	}

	var runs []*outcome
	ok := true
	for _, s := range selected {
		for r := 0; r < *repeat; r++ {
			p := &params{seed: *seed + int64(r), seconds: *seconds, ops: *opsF, trace: trace, smoke: *scale == "smoke"}
			if p.smoke && p.ops == 0 {
				p.ops = s.smokeOps
			}
			out, err := runWorkload(s, p)
			if err != nil {
				return fail(fmt.Errorf("%s: %w", s.name, err))
			}
			out.print(os.Stdout)
			runs = append(runs, out)
			ok = ok && out.Correct
		}
	}
	if *jsonOut != "" {
		if err := writeRuns(*jsonOut, runs); err != nil {
			return fail(err)
		}
	}
	if *repeat > 1 && !trace && selfCheck(os.Stdout, runs) {
		ok = false
	}
	if *workloadF != "" && *repeat == 1 {
		line, err := runs[0].contractLine()
		if err != nil {
			return fail(err)
		}
		fmt.Println(line)
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "benchmark: failed (oracle notes or regressed rows above)")
		return 1
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 2
}

func runWorkload(s *spec, p *params) (*outcome, error) {
	switch {
	case s.srv() && p.trace:
		return traceSrv(s, p)
	case s.srv():
		return runSrv(s, p)
	case p.trace:
		return traceLib(s, p)
	}
	return runLib(s, p)
}

// params are the flags of one run.
type params struct {
	seed    int64
	seconds float64
	ops     int // > 0: measure exactly this many ops instead of for seconds
	trace   bool
	// smoke is the test scale: one set-up, a tenth of the ramp, two plug-pulls,
	// and the workload's small fixed op count unless ops is set.
	smoke bool
	flip  bool // test hook: corrupt one oracle entry, the run must fail
}

// expecting is expect itself, or with the flip hook set, expect with the
// file's first byte flipped.
func (p *params) expecting(expect func(dst []byte, off int64)) func(dst []byte, off int64) {
	if !p.flip {
		return expect
	}
	return func(dst []byte, off int64) {
		expect(dst, off)
		if off == 0 {
			dst[0] ^= 1
		}
	}
}

// setups is how many times a run sets the system up; setup_s is the median.
// A server set-up is quick but rides on millisecond timers, so it gets more.
func (p *params) setups(s *spec) int {
	switch {
	case p.smoke:
		return 1
	case s.srv():
		return 5
	}
	return 3
}

// crashPoints is how many plug-pulls a run recovers from.
func (p *params) crashPoints() int {
	if p.smoke {
		return 2
	}
	return 8
}

// streamOps is how many ops to generate for the measured stream: the
// workload's full length, or with a fixed op count just enough for it, its
// continuation and the ops between plug-pulls.
func (p *params) streamOps(s *spec) int {
	if p.ops > 0 {
		if need := 2*p.ops + p.crashPoints()*crashSpacing; need < s.streamOps {
			return need
		}
	}
	return s.streamOps
}

func (p *params) ramp(s *spec) int {
	if p.smoke {
		return s.rampOps / 10
	}
	return s.rampOps
}

func (p *params) window() time.Duration {
	return time.Duration(p.seconds * float64(time.Second))
}

// resultFile is what -json writes and -compare reads.
type resultFile struct {
	Runs []*outcome `json:"runs"`
}

func writeRuns(path string, runs []*outcome) error {
	b, err := json.MarshalIndent(resultFile{runs}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
