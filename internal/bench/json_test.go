package bench

import (
	"bytes"
	"strings"
	"testing"

	"mgsp/internal/obs"
)

func tinyReport() *Report {
	t := NewTable("t1", "tiny", "u", []string{"a", "b"}, []string{"r1"})
	t.Cells[0][0], t.Cells[0][1] = 1.5, 2.5
	return BuildReport("unit", "smoke", Smoke(), []*Table{t},
		map[string]float64{"r1/x": 3},
		map[string]obs.HistSnapshot{"r1/h": {Count: 2, Sum: 10, Max: 8, Mean: 5, P50: 4, P95: 8, P99: 8}})
}

func TestReportRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := tinyReport().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := ValidateReport(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if r.Schema != ReportSchema || r.Experiment != "unit" {
		t.Fatalf("round trip lost identity: %+v", r)
	}
	if r.Config.Ops != Smoke().Ops || r.Config.FileSize != Smoke().FileSize {
		t.Fatalf("config mangled: %+v", r.Config)
	}
	if r.Tables[0].Cell("r1", "b") != 2.5 {
		t.Fatalf("cell mangled: %v", r.Tables[0].Cells)
	}
	if r.Metrics["r1/x"] != 3 {
		t.Fatalf("metrics mangled: %v", r.Metrics)
	}
	if h := r.Hists["r1/h"]; h.Count != 2 || h.P95 != 8 {
		t.Fatalf("hist mangled: %+v", h)
	}
}

func TestValidateReportRejects(t *testing.T) {
	bad := func(mutate func(*Report)) []byte {
		r := tinyReport()
		mutate(r)
		var buf bytes.Buffer
		if err := r.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"garbage", []byte("{nope"), "bad report"},
		{"foreign schema", bad(func(r *Report) { r.Schema = "other/v9" }), "schema"},
		{"no experiment", bad(func(r *Report) { r.Experiment = "" }), "experiment"},
		{"no tables", bad(func(r *Report) { r.Tables = nil }), "no tables"},
		{"empty table id", bad(func(r *Report) { r.Tables[0].ID = "" }), "empty id"},
		{"row mismatch", bad(func(r *Report) { r.Tables[0].Rows = append(r.Tables[0].Rows, "r2") }), "cell rows"},
		{"col mismatch", bad(func(r *Report) { r.Tables[0].Cols = r.Tables[0].Cols[:1] }), "columns"},
		{"bad hist", bad(func(r *Report) { h := r.Hists["r1/h"]; h.P99 = h.Max + 1; r.Hists["r1/h"] = h }), "inconsistent"},
		{"negative cache metric", bad(func(r *Report) { r.Metrics["w50/+cache/cache.hits"] = -1 }), "negative"},
		{"mixed without cache metrics", bad(func(r *Report) { r.Experiment = "core,mixed" }), "no cache.hits"},
	}
	for _, c := range cases {
		if _, err := ValidateReport(c.data); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.want)
		}
	}
}

// TestCoreSmoke drives the instrumented experiment end to end at smoke scale
// and checks that the emitted artifact — the one `make bench-smoke` gates the
// merge on — validates and actually carries the obs payload.
func TestCoreSmoke(t *testing.T) {
	sc := Smoke()
	tab, metrics, hists, err := Core(sc)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := BuildReport("core", "smoke", sc, []*Table{tab}, metrics, hists).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := ValidateReport(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if r.Tables[0].Cell("seq-write-fsync1", "MiB/s") <= 0 {
		t.Fatal("no write throughput measured")
	}
	if wa := r.Tables[0].Cell("rand-write", "WA"); wa <= 0 {
		t.Fatalf("rand-write WA = %v, want > 0", wa)
	}
	for _, k := range []string{"seq-write-fsync1/wa.ratio", "rand-write/core.mgl_try_fails"} {
		if _, ok := r.Metrics[k]; !ok {
			t.Errorf("metric %q missing from report", k)
		}
	}
	if h, ok := r.Hists["seq-write-fsync1/fs.write_ns"]; !ok || h.Count == 0 {
		t.Error("write latency histogram missing from report")
	}
	if h, ok := r.Hists["seq-write-fsync1/fs.fsync_ns"]; !ok || h.Count == 0 {
		t.Error("fsync latency histogram missing from report")
	}
	if LiveSnapshot() == nil || LiveTraceRing() == nil {
		t.Error("live snapshot/trace not published")
	}
}

// TestMixedSmoke drives the read/write-ratio sweep end to end at smoke scale:
// the table must carry both columns (cache off and on) per ratio, the cache
// column must report hits at read-heavy ratios, and the emitted report must pass the
// mixed-specific validation (cache.hits present, counters non-negative).
func TestMixedSmoke(t *testing.T) {
	sc := Smoke()
	tab, metrics, hists, err := Mixed(sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		for _, col := range []string{"MGSP", "+cache"} {
			if tab.Cell(row, col) <= 0 {
				t.Errorf("%s/%s: no throughput measured", row, col)
			}
		}
	}
	// At the most read-heavy ratio the cache must actually be hitting.
	if v := metrics["mixed-w10/+cache/cache.hits"]; v <= 0 {
		t.Errorf("w10/+cache cache.hits = %v, want > 0", v)
	}
	var buf bytes.Buffer
	if err := BuildReport("mixed", "smoke", sc, []*Table{tab}, metrics, hists).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateReport(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
}
