package sim

import (
	"strings"
	"sync"
	"testing"
)

func TestScheduleOrdering(t *testing.T) {
	s := NewSchedule()
	a := s.Begin(0, 0, "write", 10)
	b := s.Begin(1, 0, "write", 12)
	s.End(a, 15)
	c := s.Begin(0, 1, "fsync", 15)
	s.End(c, 16)
	s.MarkCrash()

	if !a.Before(c) {
		t.Fatal("a ended before c began but Before() is false")
	}
	if b.Before(c) {
		t.Fatal("in-flight span must precede nothing")
	}
	if a.Before(b) {
		t.Fatal("a overlapped b (a ended after b began) but Before() is true")
	}
	if !b.InFlight() {
		t.Fatal("b never ended; InFlight() should be true")
	}
	if got := s.InFlightSpans(); len(got) != 1 || got[0] != b {
		t.Fatalf("InFlightSpans = %v, want [b]", got)
	}
	if s.CrashSeq() == 0 {
		t.Fatal("MarkCrash did not record a sequence number")
	}

	dump := s.String()
	for _, want := range []string{"crash at seq", "worker 0:", "worker 1:", "..crash)"} {
		if !strings.Contains(dump, want) {
			t.Fatalf("dump missing %q:\n%s", want, dump)
		}
	}
}

// TestScheduleEndAfterCrashInFlight: an op that returns after MarkCrash ran
// on past the power cut, so End must leave its span in flight and report
// that it did not complete.
func TestScheduleEndAfterCrashInFlight(t *testing.T) {
	s := NewSchedule()
	a := s.Begin(0, 0, "write", 1)
	b := s.Begin(1, 0, "write", 2)
	if !s.End(a, 3) {
		t.Fatal("End before MarkCrash reported the span incomplete")
	}
	s.MarkCrash()
	if s.End(b, 4) {
		t.Fatal("End after MarkCrash reported the span complete")
	}
	if a.InFlight() || !b.InFlight() {
		t.Fatalf("in flight: a=%v b=%v, want a=false b=true", a.InFlight(), b.InFlight())
	}
	if got := s.InFlightSpans(); len(got) != 1 || got[0] != b {
		t.Fatalf("InFlightSpans = %v, want [b]", got)
	}
	c := s.Begin(0, 1, "read", 4)
	s.End(c, 4)
	if b.Before(c) || !c.InFlight() {
		t.Fatal("a span ended after the crash must precede nothing")
	}
}

// Concurrent Begin/End must hand out unique, strictly increasing sequence
// numbers (the oracle's happens-before order depends on it).
func TestScheduleConcurrentSeqUnique(t *testing.T) {
	s := NewSchedule()
	var wg sync.WaitGroup
	const workers, ops = 8, 200
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				sp := s.Begin(w, i, "op", int64(i))
				s.End(sp, int64(i))
			}
		}(w)
	}
	wg.Wait()

	seen := make(map[int64]bool)
	for _, sp := range s.Spans() {
		if sp.InFlight() {
			t.Fatal("joined worker left an in-flight span")
		}
		if sp.EndSeq <= sp.StartSeq {
			t.Fatalf("span end %d <= start %d", sp.EndSeq, sp.StartSeq)
		}
		for _, q := range []int64{sp.StartSeq, sp.EndSeq} {
			if seen[q] {
				t.Fatalf("sequence number %d issued twice", q)
			}
			seen[q] = true
		}
	}
	if len(seen) != workers*ops*2 {
		t.Fatalf("recorded %d edges, want %d", len(seen), workers*ops*2)
	}
}
