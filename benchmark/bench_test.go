package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"mgsp/internal/sim"
)

func smoke(s *spec) *params {
	return &params{seed: 1, seconds: 1, ops: s.smokeOps, smoke: true}
}

// virtualOutcome is everything a library window yields on the virtual clock
// or as an exact count: what a change meant only to speed up the Go code must
// leave bit-identical.
type virtualOutcome struct {
	virtNS, sumVirtOpNS      int64
	p50, p99                 float64
	mediaWrite, mediaRead    int64
	fences, flushes, mediaOp int64
}

func libVirtual(t *testing.T, s *spec) virtualOutcome {
	t.Helper()
	p := smoke(s)
	e, err := setupLib(s, s.workers, p.seed, newPool(p.seed), libOps(s, p))
	if err != nil {
		t.Fatal(err)
	}
	st := e.dev.Stats()
	w0, r0, f0, fl0, m0 := st.MediaWriteBytes.Load(), st.MediaReadBytes.Load(), st.Fences.Load(), st.Flushes.Load(), st.MediaOps.Load()
	res := e.measure(0, 0, p.ops, false)
	if res.failed != 0 || res.mismatched != 0 {
		t.Fatalf("%s: %d failed, %d mismatched: %v", s.name, res.failed, res.mismatched, res.firstErr)
	}
	q := res.virtAll.quantiles(0.5, 0.99)
	return virtualOutcome{
		virtNS: res.virtNS, sumVirtOpNS: res.sumVirtOpNS, p50: q[0], p99: q[1],
		mediaWrite: st.MediaWriteBytes.Load() - w0, mediaRead: st.MediaReadBytes.Load() - r0,
		fences: st.Fences.Load() - f0, flushes: st.Flushes.Load() - fl0, mediaOp: st.MediaOps.Load() - m0,
	}
}

// The deterministic schedule: two passes over the same seed agree exactly on
// every virtual-time result and every media counter, for every library
// workload — including the 16-worker one that moves ±15 % under goroutines.
func TestLibVirtualResultsRepeatExactly(t *testing.T) {
	for _, s := range specs {
		if s.srv() {
			continue
		}
		a, b := libVirtual(t, s), libVirtual(t, s)
		if a != b {
			t.Errorf("%s: two runs of one seed differ:\n%+v\n%+v", s.name, a, b)
		}
		if a.virtNS == 0 || a.mediaWrite == 0 {
			t.Errorf("%s: nothing measured: %+v", s.name, a)
		}
	}
}

// Recovering one image twice takes the same virtual time and writes the same
// bytes: recovery is on the deterministic clock too.
func TestRecoveryOfOneImageRepeatsExactly(t *testing.T) {
	s, err := specByName("lib-mixed-msl-4w")
	if err != nil {
		t.Fatal(err)
	}
	p := smoke(s)
	e, err := setupLib(s, s.workers, p.seed, newPool(p.seed), libOps(s, p))
	if err != nil {
		t.Fatal(err)
	}
	r := newRecoverer(mgspOptions(s), nil)
	if err := r.pull(e.dev); err != nil {
		t.Fatal(err)
	}
	a, err := r.mount()
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.mount()
	if err != nil {
		t.Fatal(err)
	}
	if a.virtMS != b.virtMS || a.mediaWrite != b.mediaWrite || a.virtMS == 0 {
		t.Errorf("two mounts of one image: %v virtual ms / %d bytes, then %v / %d", a.virtMS, a.mediaWrite, b.virtMS, b.mediaWrite)
	}
}

type clockTarget struct{ cost []int64 }

func (c clockTarget) do(w int, ctx *sim.Ctx, _ *op, _ []byte) error {
	ctx.Advance(c.cost[w])
	return nil
}

// Lowest virtual clock first, ties to the lowest id: with costs 3:1 worker 1
// issues three ops for each of worker 0's.
func TestScheduleLowestClockFirst(t *testing.T) {
	ctxs := newCtxs(2, 1)
	var order []int
	r := &run{ctxs: ctxs}
	tgt := clockTarget{cost: []int64{300, 100}}
	for i := 0; i < 8; i++ {
		w := r.lowest()
		order = append(order, w)
		tgt.do(w, ctxs[w], nil, nil)
	}
	want := []int{0, 1, 1, 1, 0, 1, 1, 1}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("schedule %v, want %v", order, want)
		}
	}
}

// One flipped byte in what the oracle expects must fail the run, on the
// library path (unit table + payload pool) and the server path (shadow).
func TestOracleCatchesOneFlippedByte(t *testing.T) {
	for _, name := range []string{"lib-write-4k-1w", "srv-kv-sync"} {
		s, err := specByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p := smoke(s)
		p.flip = true
		out, err := runWorkload(s, p)
		if err != nil {
			t.Fatal(err)
		}
		if out.Correct {
			t.Errorf("%s: a flipped oracle byte went unnoticed", name)
		}
		if len(out.Notes) == 0 || !strings.Contains(out.Notes[len(out.Notes)-1], "1 mismatching bytes") {
			t.Errorf("%s: want exactly one mismatching byte reported, got notes %q", name, out.Notes)
		}
	}
}

// A run reports every metric of its set, and only the contract's keys.
func TestRunsReportEveryMetric(t *testing.T) {
	cases := []struct {
		name  string
		trace bool
	}{
		{"lib-zipf-r90-cache-4w", false},
		{"srv-kv-pipe", false},
		{"lib-write-1k-16w", true},
		{"srv-kv-sync", true},
	}
	for _, c := range cases {
		if c.trace && testing.Short() {
			continue
		}
		s, err := specByName(c.name)
		if err != nil {
			t.Fatal(err)
		}
		p := smoke(s)
		p.trace = c.trace
		if c.trace {
			dir := t.TempDir()
			wd, _ := os.Getwd()
			os.Chdir(dir) // span files go under ./benchmark/out
			defer os.Chdir(wd)
		}
		out, err := runWorkload(s, p)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d notes=%q", c.name, out.Correct, out.Attempted, out.Failed, out.Notes)
		}
		line, err := out.contractLine()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, d := range out.defs() {
			if !strings.Contains(line, `"`+d.Name+`":{"value":`) {
				t.Errorf("%s: %s missing from the result line", c.name, d.Name)
			}
			if v := out.Metrics[d.Name]; math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v", c.name, d.Name, v)
			}
			if v := out.Metrics[d.Name]; !c.trace && v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", c.name, d.Name, v)
			}
		}
	}
}

// The benchmark compiles against a narrow surface so ROADMAP items 3-4 can
// delete these without editing it.
func TestNoForbiddenIdentifiers(t *testing.T) {
	forbidden := regexp.MustCompile(`\b(WriteBack|FlushInterval|OptimisticReads|BatchWait|Flusher|crashtest)\b`)
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if m := forbidden.Find(src); m != nil {
			t.Errorf("%s names %s", f, m)
		}
	}
}

// BENCHMARK.json is generated from the metric tables (-manifest); the
// committed copy must not drift from them.
func TestManifestIsCurrent(t *testing.T) {
	var want bytes.Buffer
	if err := writeManifest(&want); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Error("BENCHMARK.json differs from the tables; regenerate it with: go run . -manifest > ../BENCHMARK.json")
	}
}

// The contract's limits on BENCHMARK.json.
func TestManifestWithinContract(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.\-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("bad name %q", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if len(specs) < 2 || len(specs) > 8 {
		t.Errorf("%d workloads", len(specs))
	}
	for _, s := range specs {
		check(s.name)
		if len(s.why) > 200 || strings.Contains(s.why, "\n") {
			t.Errorf("%s: why is %d chars", s.name, len(s.why))
		}
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end, %d per-layer metrics", len(endToEnd), len(perLayer))
	}
	setup := false
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		check(d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: bad unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
		if d.clock == "" {
			t.Errorf("%s: names no clock", d.Name)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = d.Unit == "s" && d.Better == "lower"
		}
	}
	if !setup {
		t.Error("no setup_s in s, lower is better")
	}
	// 4 + 22 runs per workload within 3420 s: allow each run 2.5x its window,
	// for set-up, recovery and the traced runs' replays.
	if total := float64(4+22*len(specs)) * runSeconds * 2.5; total > 3420 {
		t.Errorf("%d workloads x %d s cannot fit the driver's budget (%.0f s)", len(specs), runSeconds, total)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4) == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 37, 4, 7, 29, 11, 16, 22})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "x", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "y", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	cases := []struct {
		d    metricDef
		a, b []float64
		want verdict
	}{
		{lower, steady, []float64{105, 104, 106, 105, 105}, verdictOK},
		{lower, steady, []float64{115, 114, 116, 115, 115}, verdictRegressed},
		{lower, steady, []float64{80, 81, 79, 80, 80}, verdictOK}, // better is never a regression
		{higher, steady, []float64{85, 84, 86, 85, 85}, verdictRegressed},
		{higher, steady, []float64{120, 121, 119, 120, 120}, verdictOK},
		{lower, []float64{100, 130, 80, 100, 115}, []float64{150, 150, 150, 150, 150}, verdictUnresolved},
	}
	for i, c := range cases {
		if got, _, _ := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("case %d: %s, want %s", i, got, c.want)
		}
	}
}

func TestSamplesDecimateDeterministically(t *testing.T) {
	s := newSamples(8)
	for i := int64(1); i <= 100; i++ {
		s.add(i)
	}
	if s.count() != 100 || len(s.v) > 8 || len(s.v) < 4 {
		t.Fatalf("kept %d of %d", len(s.v), s.count())
	}
	if q := s.quantiles(0.5)[0]; q < 30 || q > 70 {
		t.Errorf("median of 1..100 after decimation = %v", q)
	}
}
