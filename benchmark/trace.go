package main

import (
	"bufio"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// Span kinds: the calls the benchmark makes into a layer's public API. The
// benchmark records spans from its own files only; spans inside the program
// are a later change.
type spanKind uint8

const (
	spanOp spanKind = iota // one generated op that makes several calls; their parent
	spanCoreWrite
	spanCoreRead
	spanCoreFsync
	spanCoreClose
	spanCoreMount
	spanClientWrite
	spanClientRead
	numSpanKinds
)

var spanNames = [numSpanKinds]struct{ layer, name string }{
	spanOp:          {"bench", "op"},
	spanCoreWrite:   {"core", "WriteAt"},
	spanCoreRead:    {"core", "ReadAt"},
	spanCoreFsync:   {"core", "Fsync"},
	spanCoreClose:   {"core", "Close"},
	spanCoreMount:   {"core", "Mount"},
	spanClientWrite: {"server", "client.WriteAt"},
	spanClientRead:  {"server", "client.ReadAt"},
}

type span struct {
	id, parent uint32 // parent 0 = root
	kind       spanKind
	worker     int32
	wall0      int64 // ns since the tracer's epoch
	wall1      int64
	virt0      int64 // the worker's sim clock; 0 on both ends when the caller has none
	virt1      int64
	bytes      int64
}

// maxSpans bounds the trace file (about 10 MB of JSONL). Totals keep
// counting past it, so per-layer sums cover the whole window.
const maxSpans = 1 << 16

// tracer holds spans in a preallocated buffer and per-kind totals. It is used
// from one goroutine at a time (server issuers each own one and are merged).
type tracer struct {
	epoch   time.Time
	spans   []span
	nextID  uint32
	dropped int64
	totals  [numSpanKinds]struct{ n, wallNS, virtNS, bytes int64 }
}

func newTracer(epoch time.Time, capacity int) *tracer {
	return &tracer{epoch: epoch, spans: make([]span, 0, capacity)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span; the caller keeps it on its stack and hands it to end.
func (t *tracer) begin(kind spanKind, parent uint32, worker int, virt int64) span {
	t.nextID++
	return span{id: t.nextID, parent: parent, kind: kind, worker: int32(worker), virt0: virt, wall0: t.now()}
}

func (t *tracer) end(s span, virt, bytes int64) {
	s.wall1, s.virt1, s.bytes = t.now(), virt, bytes
	tot := &t.totals[s.kind]
	tot.n++
	tot.wallNS += s.wall1 - s.wall0
	tot.virtNS += s.virt1 - s.virt0
	tot.bytes += bytes
	if len(t.spans) < cap(t.spans) {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
}

// meanWallNS is the mean wall duration of one kind of span.
func (t *tracer) meanWallNS(kind spanKind) float64 {
	return ratio(float64(t.totals[kind].wallNS), float64(t.totals[kind].n))
}

// merge folds another tracer's spans and totals into t, offsetting ids so
// they stay unique.
func (t *tracer) merge(o *tracer) {
	for _, s := range o.spans {
		s.id += t.nextID
		if s.parent != 0 {
			s.parent += t.nextID
		}
		if len(t.spans) < cap(t.spans) {
			t.spans = append(t.spans, s)
		} else {
			t.dropped++
		}
	}
	t.nextID += o.nextID
	t.dropped += o.dropped
	for k := range t.totals {
		t.totals[k].n += o.totals[k].n
		t.totals[k].wallNS += o.totals[k].wallNS
		t.totals[k].virtNS += o.totals[k].virtNS
		t.totals[k].bytes += o.totals[k].bytes
	}
}

// traceDir is where span files go, relative to the repository root the
// benchmark is run from.
const traceDir = "benchmark/out"

// write dumps the spans as one JSON object per line, preceded by a header
// line that says how many spans did not fit.
func (t *tracer) write(workload string) (string, error) {
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(traceDir, workload+".trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	b := make([]byte, 0, 256)
	b = append(b, `{"workload":"`...)
	b = append(b, workload...)
	b = append(b, `","spans":`...)
	b = strconv.AppendInt(b, int64(len(t.spans)), 10)
	b = append(b, `,"dropped":`...)
	b = strconv.AppendInt(b, t.dropped, 10)
	b = append(b, "}\n"...)
	w.Write(b)
	for i := range t.spans {
		s := &t.spans[i]
		b = b[:0]
		b = append(b, `{"id":`...)
		b = strconv.AppendUint(b, uint64(s.id), 10)
		b = append(b, `,"parent":`...)
		b = strconv.AppendUint(b, uint64(s.parent), 10)
		b = append(b, `,"layer":"`...)
		b = append(b, spanNames[s.kind].layer...)
		b = append(b, `","name":"`...)
		b = append(b, spanNames[s.kind].name...)
		b = append(b, `","worker":`...)
		b = strconv.AppendInt(b, int64(s.worker), 10)
		for _, kv := range [...]struct {
			k string
			v int64
		}{
			{"wall_start", s.wall0}, {"wall_end", s.wall1},
			{"virt_start", s.virt0}, {"virt_end", s.virt1}, {"bytes", s.bytes},
		} {
			b = append(b, `,"`...)
			b = append(b, kv.k...)
			b = append(b, `":`...)
			b = strconv.AppendInt(b, kv.v, 10)
		}
		b = append(b, "}\n"...)
		w.Write(b)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
