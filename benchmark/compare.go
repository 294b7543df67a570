package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which is
// what the driver judges spreads by.
func quartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the run-to-run spread of one metric as a share of its median:
// the interquartile distance, or the whole range when there are too few runs
// for quartiles. One run has no measurable spread.
func spread(values []float64) float64 {
	med := math.Abs(median(values))
	switch n := len(values); {
	case n < 2 || med == 0:
		return 0
	case n < 4:
		lo, hi := values[0], values[0]
		for _, v := range values {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		return (hi - lo) / med
	}
	q1, q3 := quartiles(values)
	return (q3 - q1) / med
}

type verdict string

const (
	verdictOK         verdict = "ok"
	verdictRegressed  verdict = "regressed"
	verdictUnresolved verdict = "unresolved" // spread wider than the bound: neither claim can be made
)

// judge applies one metric's bound to two sets of runs.
func judge(d metricDef, a, b []float64) (v verdict, worse, spr float64) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		worse = (mb - ma) / math.Abs(ma)
	}
	if d.Better == "higher" {
		worse = -worse
	}
	spr = math.Max(spread(a), spread(b))
	switch {
	case spr > d.Bound:
		return verdictUnresolved, worse, spr
	case worse > d.Bound:
		return verdictRegressed, worse, spr
	}
	return verdictOK, worse, spr
}

// byWorkload collects the end-to-end values of the untraced runs.
func byWorkload(runs []*outcome) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range runs {
		if r.Trace {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for _, d := range endToEnd {
			out[r.Workload][d.Name] = append(out[r.Workload][d.Name], r.Metrics[d.Name])
		}
	}
	return out
}

// compareRuns prints one row per workload x end-to-end metric and reports
// whether any regressed. A run that was not correct regresses its workload.
func compareRuns(w io.Writer, a, b []*outcome) bool {
	av, bv := byWorkload(a), byWorkload(b)
	regressed := false
	fmt.Fprintf(w, "%-24s %-20s %14s %14s %9s %9s %7s  %s\n",
		"workload", "metric", "median a", "median b", "worse", "spread", "bound", "verdict")
	for _, s := range specs {
		if av[s.name] == nil || bv[s.name] == nil {
			continue
		}
		for _, d := range endToEnd {
			v, worse, spr := judge(d, av[s.name][d.Name], bv[s.name][d.Name])
			regressed = regressed || v == verdictRegressed
			fmt.Fprintf(w, "%-24s %-20s %14.4f %14.4f %+8.2f%% %8.2f%% %6.0f%%  %s\n",
				s.name, d.Name, median(av[s.name][d.Name]), median(bv[s.name][d.Name]),
				100*worse, 100*spr, 100*d.Bound, v)
		}
	}
	for _, r := range b {
		if !r.Correct {
			fmt.Fprintf(w, "%-24s incorrect run (seed %d): regressed\n", r.Workload, r.Seed)
			regressed = true
		}
	}
	return regressed
}

func readRuns(path string) ([]*outcome, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f.Runs, nil
}

func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readRuns(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRuns(pathB)
	if err != nil {
		return false, err
	}
	return compareRuns(w, a, b), nil
}

// selfCheck splits repeated runs of the same code into two sets (alternate
// runs) and compares them: every row must come out ok.
func selfCheck(w io.Writer, runs []*outcome) bool {
	var a, b []*outcome
	seen := map[string]int{}
	for _, r := range runs {
		if seen[r.Workload]%2 == 0 {
			a = append(a, r)
		} else {
			b = append(b, r)
		}
		seen[r.Workload]++
	}
	fmt.Fprintln(w, "self-check: alternate runs of the same code as sets a and b")
	return compareRuns(w, a, b)
}
