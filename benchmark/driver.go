package main

import (
	"encoding/binary"
	"fmt"
	"time"

	"mgsp/internal/sim"
)

// target is the layer a stream is driven against: the system under test, or
// for a differential replay the layer beneath it. data is the payload of a
// write or the destination of a read, len(data) == o.size.
type target interface {
	do(w int, ctx *sim.Ctx, o *op, data []byte) error
}

// oracle knows what every unit of the library workloads' file must hold: the
// index of the op that last wrote it. Expected bytes are then a window of the
// payload pool, so tracking a write costs size/512 stores instead of a copy.
type oracle struct {
	pool []byte
	ops  []op
	last []int32 // per unit: index into ops, -1 = never written (zeros)
}

func newOracle(pool []byte, ops []op, size int64) *oracle {
	o := &oracle{pool: pool, ops: ops, last: make([]int32, size/unit)}
	for i := range o.last {
		o.last[i] = -1
	}
	return o
}

func (o *oracle) wrote(idx int) {
	w := &o.ops[idx]
	first := w.off / unit
	for u := first; u < first+int64(w.size)/unit; u++ {
		o.last[u] = int32(idx)
	}
}

// word returns the 8 bytes expected at file offset off.
func (o *oracle) word(off int64) uint64 {
	idx := o.last[off/unit]
	if idx < 0 {
		return 0
	}
	w := &o.ops[idx]
	return binary.LittleEndian.Uint64(o.pool[int64(payloadAt(int(idx)))+off-w.off:])
}

// checkRead compares the first and last word of a read against the oracle: a
// stale or misplaced block differs there, and the check stays cheap enough
// to run on every measured read. The full image is compared after remount.
func (o *oracle) checkRead(r *op, got []byte) bool {
	end := r.off + int64(r.size) - 8
	return binary.LittleEndian.Uint64(got) == o.word(r.off) &&
		binary.LittleEndian.Uint64(got[r.size-8:]) == o.word(end)
}

// expect fills dst with the bytes the file must hold at [off, off+len(dst)).
func (o *oracle) expect(dst []byte, off int64) {
	for u := int64(0); u < int64(len(dst)); u += unit {
		idx := o.last[(off+u)/unit]
		d := dst[u : u+unit]
		if idx < 0 {
			for i := range d {
				d[i] = 0
			}
			continue
		}
		w := &o.ops[idx]
		copy(d, o.pool[int64(payloadAt(int(idx)))+off+u-w.off:])
	}
}

// Size classes the traced run keeps separate virtual-latency samples for.
const (
	classW512 = iota
	classW4K
	classW256K
	classR4K
	numClasses
)

func classOf(o *op) int {
	switch {
	case !o.read && o.size == 512:
		return classW512
	case !o.read && o.size == 4096:
		return classW4K
	case !o.read && o.size == 256<<10:
		return classW256K
	case o.read && o.size == 4096:
		return classR4K
	}
	return -1
}

const (
	slices     = 10      // the window's wall rate is the median over this many slices
	sampleCap  = 1 << 21 // latency samples kept per set before decimating
	clockEvery = 32      // ops between deadline checks on read-only stretches
)

// run is one pass of a stream over a target under the deterministic
// schedule: all virtual workers share the calling goroutine, and the worker
// whose virtual clock is lowest (ties to the lowest id) issues the next op.
// sim's locks and bandwidth timeline book virtual intervals, so the
// interleaving — and with it every virtual-time result — depends only on the
// stream, never on the Go scheduler.
type run struct {
	t      target
	ctxs   []*sim.Ctx
	pool   []byte
	ops    []op // the stream is ops[base:base+n], reused from its start when exhausted
	base   int
	n      int
	from   int     // first op of the pass, counted from base
	oracle *oracle // nil: no verification (replays)
	byKind bool    // keep per-class and per-kind virtual latency samples

	// Stop after window of wall time, or after exactly count ops when
	// count > 0 (the deterministic mode tests and A/B comparisons use).
	window time.Duration
	count  int

	rbuf []byte
}

type result struct {
	ops, failed, mismatched int64
	reads, writes           int64
	bytes, writeBytes       int64
	virtNS, wallNS          int64
	sliceRates              []float64 // ops per wall second, per slice
	virtAll, wallWrite      *samples
	virtWrite, virtRead     *samples
	byClass                 [numClasses]*samples
	firstErr                error
	sumVirtOpNS             int64
}

// wallOpsPerS is the median slice rate: robust to a GC cycle or a scheduling
// hiccup landing in one slice.
func (r *result) wallOpsPerS() float64 { return median(r.sliceRates) }

func (r *result) virtMiBps() float64 {
	return ratio(float64(r.bytes)/(1<<20), float64(r.virtNS)/1e9)
}

func (r *run) lowest() int {
	best, bt := 0, r.ctxs[0].Now()
	for i := 1; i < len(r.ctxs); i++ {
		if t := r.ctxs[i].Now(); t < bt {
			best, bt = i, t
		}
	}
	return best
}

func (r *run) exec() *result {
	capacity := sampleCap
	if r.count > 0 && r.count < capacity {
		capacity = r.count // a short fixed pass needs no 8 MB buffers
	}
	res := &result{virtAll: newSamples(capacity), wallWrite: newSamples(capacity)}
	if r.byKind {
		res.virtWrite, res.virtRead = newSamples(capacity), newSamples(capacity)
		for i := range res.byClass {
			res.byClass[i] = newSamples(capacity / 4)
		}
	}
	if r.rbuf == nil {
		r.rbuf = make([]byte, maxOpSize)
	}
	// A common virtual start: workers begin the window together.
	v0 := sim.MaxTime(r.ctxs)
	for _, c := range r.ctxs {
		c.AdvanceTo(v0)
	}

	sliceOps := r.count / slices
	sliceDur := r.window / slices
	var lastOps, lastNS int64
	closeSlice := func(ops, ns int64) {
		res.sliceRates = append(res.sliceRates, ratio(float64(ops-lastOps), float64(ns-lastNS)/1e9))
		lastOps, lastNS = ops, ns
	}

	start := time.Now()
	var now int64
	for i := 0; ; i++ {
		if r.count > 0 {
			if i == r.count {
				break
			}
			if sliceOps > 0 && i > 0 && i%sliceOps == 0 && len(res.sliceRates) < slices-1 {
				closeSlice(int64(i), int64(time.Since(start)))
			}
		} else {
			if i%clockEvery == 0 {
				now = int64(time.Since(start))
			}
			if now >= int64(sliceDur)*int64(len(res.sliceRates)+1) {
				closeSlice(int64(i), now)
				if len(res.sliceRates) == slices {
					break
				}
			}
		}
		idx := r.base + (r.from+i)%r.n
		o := &r.ops[idx]
		w := r.lowest()
		ctx := r.ctxs[w]
		vStart := ctx.Now()

		var err error
		if o.read {
			data := r.rbuf[:o.size]
			err = r.t.do(w, ctx, o, data)
			if err == nil && r.oracle != nil && !r.oracle.checkRead(o, data) {
				res.mismatched++
			}
			res.reads++
		} else {
			t0 := time.Since(start)
			err = r.t.do(w, ctx, o, r.pool[payloadAt(idx):][:o.size])
			now = int64(time.Since(start))
			res.wallWrite.add(now - int64(t0))
			if err == nil && r.oracle != nil {
				r.oracle.wrote(idx)
			}
			res.writes++
			res.writeBytes += int64(o.size)
		}
		if err != nil {
			res.failed++
			if res.firstErr == nil {
				res.firstErr = fmt.Errorf("op %d (read=%v off=%d size=%d): %w", i, o.read, o.off, o.size, err)
			}
		}
		res.bytes += int64(o.size)
		lat := ctx.Now() - vStart
		res.sumVirtOpNS += lat
		res.virtAll.add(lat)
		if r.byKind {
			if o.read {
				res.virtRead.add(lat)
			} else {
				res.virtWrite.add(lat)
			}
			if c := classOf(o); c >= 0 {
				res.byClass[c].add(lat)
			}
		}
		res.ops++
	}
	res.wallNS = int64(time.Since(start))
	if r.count > 0 {
		closeSlice(res.ops, res.wallNS)
	}
	res.virtNS = sim.MaxTime(r.ctxs) - v0
	return res
}
