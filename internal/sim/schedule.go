package sim

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Schedule records the interleaving of operations across concurrent workers:
// each operation is a Span stamped with globally ordered begin/end sequence
// numbers and the device media-op counter at both edges. Crash harnesses use
// the record two ways: the sequence numbers give a sound happens-before
// order for oracle checking (span A definitely precedes span B iff A ended
// before B began), and the per-worker op traces plus media-op counters are
// the replay contract — a serial re-execution that issues the same per-worker
// traces reproduces the same media-op stream bit-identically.
type Schedule struct {
	mu    sync.Mutex
	seq   int64
	spans []*Span
	crash int64 // sequence number at the crash instant (0 = no crash seen)
}

// Span is one recorded operation. StartSeq/EndSeq are drawn from a single
// global counter, so comparing them across workers is meaningful; EndSeq is
// zero while the operation is in flight, and stays zero forever if the
// operation returned only after the crash was marked.
type Span struct {
	Worker   int
	Index    int    // per-worker operation index
	Label    string // operation kind, for the dump
	StartSeq int64
	EndSeq   int64
	StartOp  int64 // device media-op counter when the operation began
	EndOp    int64 // media-op counter when it returned (0 while in flight)
	Tag      int64 // caller-owned correlation id (e.g. oracle op table index)
}

// InFlight reports whether the span's operation did not return before the
// crash.
func (s *Span) InFlight() bool { return s.EndSeq == 0 }

// Before reports whether s definitely completed before t began. In-flight
// spans precede nothing: their effects may land at any point up to the
// crash.
func (s *Span) Before(t *Span) bool { return s.EndSeq != 0 && s.EndSeq < t.StartSeq }

// NewSchedule returns an empty recorder.
func NewSchedule() *Schedule { return &Schedule{} }

// Begin records the start of an operation and returns its span. Call it
// before the operation's first device access so that any observable effect
// is covered by the span.
func (s *Schedule) Begin(worker, index int, label string, mediaOp int64) *Span {
	s.mu.Lock()
	s.seq++
	sp := &Span{
		Worker:   worker,
		Index:    index,
		Label:    label,
		StartSeq: s.seq,
		StartOp:  mediaOp,
	}
	s.spans = append(s.spans, sp)
	s.mu.Unlock()
	return sp
}

// End records the operation's return and reports whether it completed. An
// End that comes after MarkCrash leaves the span in flight: the op ran on
// past the power cut, so its effects may be missing from the durable image.
func (s *Schedule) End(sp *Span, mediaOp int64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.crash != 0 {
		return false
	}
	s.seq++
	sp.EndSeq = s.seq
	sp.EndOp = mediaOp
	return true
}

// MarkCrash stamps the crash instant into the global order. Devices call it
// (through their OnCrash hook) before the cut takes effect, so every op
// that returns after it is in flight.
func (s *Schedule) MarkCrash() {
	s.mu.Lock()
	s.seq++
	s.crash = s.seq
	s.mu.Unlock()
}

// CrashSeq returns the sequence number recorded by MarkCrash, or 0.
func (s *Schedule) CrashSeq() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.crash
}

// Spans returns the recorded spans in begin order. The returned slice is a
// snapshot; the spans themselves are shared, so callers must quiesce the
// workers (join or crash) before reading EndSeq.
func (s *Schedule) Spans() []*Span {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Span(nil), s.spans...)
}

// InFlightSpans returns the spans whose operations did not return before
// the crash.
func (s *Schedule) InFlightSpans() []*Span {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*Span
	for _, sp := range s.spans {
		if sp.InFlight() {
			out = append(out, sp)
		}
	}
	return out
}

// String dumps the schedule as one line per worker in begin order, with
// in-flight operations marked. It is the human-readable half of a violation
// report; the machine-readable half is the (seed, writers, crash) repro
// triple.
func (s *Schedule) String() string {
	s.mu.Lock()
	spans := append([]*Span(nil), s.spans...)
	crash := s.crash
	s.mu.Unlock()

	byWorker := make(map[int][]*Span)
	var workers []int
	for _, sp := range spans {
		if _, ok := byWorker[sp.Worker]; !ok {
			workers = append(workers, sp.Worker)
		}
		byWorker[sp.Worker] = append(byWorker[sp.Worker], sp)
	}
	sort.Ints(workers)

	var b strings.Builder
	if crash != 0 {
		fmt.Fprintf(&b, "crash at seq %d\n", crash)
	}
	for _, w := range workers {
		fmt.Fprintf(&b, "worker %d:", w)
		for _, sp := range byWorker[w] {
			if sp.InFlight() {
				fmt.Fprintf(&b, " %s#%d[%d..crash)", sp.Label, sp.Index, sp.StartSeq)
			} else {
				fmt.Fprintf(&b, " %s#%d[%d..%d]", sp.Label, sp.Index, sp.StartSeq, sp.EndSeq)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
