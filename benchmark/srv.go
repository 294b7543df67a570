package main

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"mgsp/internal/server"
	"mgsp/internal/server/client"
)

const (
	kvTenant = "bench"
	kvFile   = "kv"
	// kvKey is the name the server gives the file inside its shard's FS
	// (tenant-scoped, see server.go); the recovered image is read back by it.
	kvKey = kvTenant + "/" + kvFile

	kvStreamLen = 1 << 16 // ops generated per issuer

	kvCrashSpacing = 256 // requests between two of a run's plug-pulls
)

// srvEnv is an in-process mgspd on a loopback listener with its connections,
// laid out and ramped, and a byte-exact shadow of the keyspace. Slots are
// single-writer, so each issuer updates its own slots' shadow without locks
// and every read can be compared in full.
type srvEnv struct {
	s       *spec
	srv     *server.Server
	served  chan error // Serve's return, once it was started
	clients []*client.Client
	files   []*client.File // one per connection
	pool    []byte
	streams [][]op // one per issuer
	shadow  []byte
}

func kvStreams(s *spec, seed int64) [][]op {
	streams := make([][]op, s.workers)
	for i := range streams {
		streams[i] = s.genStream(seed, saltMeasured, kvStreamLen, i)
	}
	return streams
}

func setupSrv(s *spec, ramp int, pool []byte, streams [][]op) (e *srvEnv, err error) {
	srv, err := server.New(server.Config{})
	if err != nil {
		return nil, err
	}
	e = &srvEnv{s: s, srv: srv, pool: pool, streams: streams, shadow: make([]byte, kvFileSize)}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return e, err
	}
	e.served = make(chan error, 1)
	go func() { e.served <- srv.Serve(ln) }()
	for i := 0; i < s.conns; i++ {
		c, err := client.Dial(ln.Addr().String(), kvTenant)
		if err != nil {
			return e, err
		}
		e.clients = append(e.clients, c)
		f, err := c.Open(kvFile, i == 0)
		if err != nil {
			return e, err
		}
		e.files = append(e.files, f)
	}
	if err := e.layout(); err != nil {
		return e, err
	}
	warm := e.issue(0, ramp, kvStreamLen-ramp, nil)
	if warm.failed > 0 || warm.mismatched > 0 {
		return e, fmt.Errorf("ramp: %d failed, %d mismatched ops: %v", warm.failed, warm.mismatched, warm.firstErr)
	}
	return e, nil
}

// layout writes every slot once, whole, with layoutInflight writes in flight
// so the batcher coalesces them. Slot-sized writes keep the shadow logs at
// leaf granularity: the 16 MiB keyspace plus one log block per slot fits the
// default 64 MiB device, which megabyte writes (interior logs on top) do not.
func (e *srvEnv) layout() error {
	const layoutInflight = 64
	errs := make(chan error, layoutInflight)
	for g := 0; g < layoutInflight; g++ {
		go func(g int) {
			f := e.files[g%len(e.files)]
			for slot := g; slot < kvSlots; slot += layoutInflight {
				data, off := e.pool[payloadAt(slot):][:kvSlotSize], int64(slot)*kvSlotSize
				if _, err := f.WriteAt(data, off); err != nil {
					errs <- fmt.Errorf("layout of slot %d: %w", slot, err)
					return
				}
				copy(e.shadow[off:], data)
			}
			errs <- nil
		}(g)
	}
	var first error
	for g := 0; g < layoutInflight; g++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// close stops the clients and the server and waits for its goroutines.
func (e *srvEnv) close() {
	for _, c := range e.clients {
		c.Close()
	}
	e.srv.Close()
	if e.served != nil {
		<-e.served
	}
}

// srvResult is the merged outcome of all issuers over one window.
type srvResult struct {
	ops, failed, mismatched int64
	reads, writes           int64
	bytes, writeBytes       int64
	wallNS                  int64
	sliceOps                [slices]int64
	sliceRates              []float64
	ackWrite, ackRead       *samples
	firstErr                error
	tr                      *tracer
}

func (r *srvResult) wallOpsPerS() float64 { return median(r.sliceRates) }

// issue runs every issuer as a goroutine parked on its own reply (closed
// loop): for window of wall time, or for exactly count ops each when
// count > 0. Issuer i uses connection i/inflight; the client demultiplexes
// replies by request id. from is where in its stream each issuer starts.
func (e *srvEnv) issue(window time.Duration, count, from int, epoch *time.Time) *srvResult {
	total := &srvResult{ackWrite: newSamples(sampleCap), ackRead: newSamples(sampleCap)}
	parts := make([]*srvResult, e.s.workers)
	start := time.Now()
	var wg sync.WaitGroup
	for i := range parts {
		part := &srvResult{ackWrite: newSamples(sampleCap / 8), ackRead: newSamples(sampleCap / 8)}
		if epoch != nil {
			part.tr = newTracer(*epoch, maxSpans/e.s.workers)
		}
		parts[i] = part
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e.issuer(i, part, start, window, count, from)
		}(i)
	}
	wg.Wait()
	total.wallNS = int64(time.Since(start))
	if epoch != nil {
		total.tr = newTracer(*epoch, maxSpans)
	}
	for _, p := range parts {
		total.ops += p.ops
		total.failed += p.failed
		total.mismatched += p.mismatched
		total.reads += p.reads
		total.writes += p.writes
		total.bytes += p.bytes
		total.writeBytes += p.writeBytes
		for k := range p.sliceOps {
			total.sliceOps[k] += p.sliceOps[k]
		}
		for _, v := range p.ackWrite.v {
			total.ackWrite.add(int64(v))
		}
		for _, v := range p.ackRead.v {
			total.ackRead.add(int64(v))
		}
		if total.firstErr == nil {
			total.firstErr = p.firstErr
		}
		if total.tr != nil {
			total.tr.merge(p.tr)
		}
	}
	if count > 0 {
		total.sliceRates = []float64{ratio(float64(total.ops), float64(total.wallNS)/1e9)}
	} else {
		for _, n := range total.sliceOps {
			total.sliceRates = append(total.sliceRates, float64(n)/(window.Seconds()/slices))
		}
	}
	return total
}

func (e *srvEnv) issuer(id int, res *srvResult, start time.Time, window time.Duration, count, from int) {
	f := e.files[id/e.s.inflight]
	ops := e.streams[id]
	rbuf := make([]byte, kvReadSize)
	sliceDur := int64(window) / slices
	for i := 0; ; i++ {
		t0 := int64(time.Since(start))
		if count > 0 {
			if i == count {
				return
			}
		} else if t0 >= int64(window) {
			return
		}
		idx := (from + i) % len(ops)
		o := &ops[idx]
		var err error
		var t1 int64
		if o.read {
			var s span
			if res.tr != nil {
				s = res.tr.begin(spanClientRead, 0, id, 0)
			}
			var n int
			n, err = f.ReadAt(rbuf, o.off)
			t1 = int64(time.Since(start))
			if res.tr != nil {
				res.tr.end(s, 0, int64(n))
			}
			res.ackRead.add(t1 - t0)
			if err == nil && (n != kvReadSize || !bytes.Equal(rbuf, e.shadow[o.off:o.off+kvReadSize])) {
				res.mismatched++
			}
			res.reads++
		} else {
			data := e.pool[payloadAt(id*kvStreamLen+idx):][:o.size]
			var s span
			if res.tr != nil {
				s = res.tr.begin(spanClientWrite, 0, id, 0)
			}
			_, err = f.WriteAt(data, o.off)
			t1 = int64(time.Since(start))
			if res.tr != nil {
				res.tr.end(s, 0, int64(o.size))
			}
			res.ackWrite.add(t1 - t0)
			if err == nil {
				copy(e.shadow[o.off:], data)
			}
			res.writes++
			res.writeBytes += int64(o.size)
		}
		if err != nil {
			res.failed++
			if res.firstErr == nil {
				res.firstErr = fmt.Errorf("issuer %d op %d (read=%v off=%d size=%d): %w", id, i, o.read, o.off, o.size, err)
			}
		}
		res.ops++
		res.bytes += int64(o.size)
		if sliceDur > 0 {
			k := t1 / sliceDur
			if k >= slices {
				k = slices - 1
			}
			res.sliceOps[k]++
		}
	}
}

// readBack reads every slot through the protocol and counts bytes that
// differ from the shadow.
func (e *srvEnv) readBack() (int64, error) {
	buf := make([]byte, kvSlotSize)
	var bad int64
	for off := int64(0); off < kvFileSize; off += kvSlotSize {
		n, err := e.files[0].ReadAt(buf, off)
		if err != nil || n != kvSlotSize {
			return 0, fmt.Errorf("read-back of slot at %d: n=%d err=%v", off, n, err)
		}
		for i, b := range buf {
			if b != e.shadow[off+int64(i)] {
				bad++
			}
		}
	}
	return bad, nil
}

func (e *srvEnv) expect(dst []byte, off int64) { copy(dst, e.shadow[off:]) }

// runSrv measures one server workload end to end (untraced).
func runSrv(s *spec, p *params) (*outcome, error) {
	out := newOutcome(s, p.seed, false)
	pool := newPool(p.seed)
	streams := kvStreams(s, p.seed)
	var prev *srvEnv
	e, setupS, err := timedSetups(p.setups(s), func() (*srvEnv, error) {
		if prev != nil {
			prev.close()
		}
		e, err := setupSrv(s, p.ramp(s), pool, streams)
		prev = e
		return e, err
	})
	if err != nil {
		return nil, err
	}
	defer e.close()
	runtime.GC()

	before := readCounters(e.srv.Snapshot)
	res := e.issue(p.window(), p.ops/s.workers, 0, nil)
	d := readCounters(e.srv.Snapshot).since(before, "shard0.")

	if p.flip {
		e.shadow[0] ^= 1
	}
	bad, err := e.readBack()
	if err != nil {
		return nil, err
	}
	// Plug-pulls of the live server's device, a few hundred requests apart:
	// every acked write must be in what survives. The last is read back.
	next, mismatched := int(res.ops)/s.workers, res.mismatched
	virtMS, wallMS, rec, err := newRecoverer(e.srv.FSOptions(), nil).sample(p.crashPoints(), e.srv.Device(0), func() error {
		more := e.issue(0, kvCrashSpacing/s.workers, next, nil)
		next += kvCrashSpacing / s.workers
		mismatched += more.mismatched
		return more.firstErr
	})
	if err != nil {
		return nil, err
	}
	badRec, err := verifyFile(rec.fs, kvKey, kvFileSize, e.expect)
	if err != nil {
		return nil, err
	}

	out.Attempted, out.Failed = res.ops, res.failed
	out.Correct = res.failed == 0 && mismatched == 0 && bad == 0 && badRec == 0
	if !out.Correct {
		out.Notes = append(out.Notes, fmt.Sprintf("oracle: %d failed ops (%v), %d mismatching reads, %d mismatching bytes read back, %d after recovery",
			res.failed, res.firstErr, mismatched, bad, badRec))
	}
	m := out.Metrics
	m["setup_s"] = setupS
	m["wall_ops_per_s"] = res.wallOpsPerS()
	m["write_p50_us"] = res.ackWrite.quantiles(0.5)[0] / 1e3
	// Virtual throughput of a server: acked write payload over the virtual
	// time its shard spent in group commits — the modelled hardware's share
	// of the work, which coalescing shrinks and linger does not touch. Reads
	// are left out: the server mints a fresh sim context (clock 0) per read,
	// so they accrue no clock comparable across requests.
	m["virt_mibps"] = ratio(float64(res.writeBytes)/(1<<20), d.histSum("fs.writev_ns")/1e9)
	m["write_amp"] = ratio(d.v("nvm.media_write_bytes"), float64(res.writeBytes))
	m["allocs_per_op"] = d.mem.mallocs / float64(res.ops)
	m["alloc_bytes_per_op"] = d.mem.bytes / float64(res.ops)
	m["recover_virt_ms"] = virtMS
	m["recover_wall_ms"] = wallMS
	out.Samples["setup_s"] = int64(p.setups(s))
	out.Samples["wall_ops_per_s"] = int64(len(res.sliceRates))
	out.Samples["write_p50_us"] = res.ackWrite.count()
	out.Samples["recover_virt_ms"], out.Samples["recover_wall_ms"] = int64(p.crashPoints()), int64(p.crashPoints())
	wq, rq := res.ackWrite.quantiles(0.5, 0.99), res.ackRead.quantiles(0.5, 0.99)
	out.Info["ack_write_p99_us"] = wq[1] / 1e3
	out.Info["ack_read_p50_us"], out.Info["ack_read_p99_us"] = rq[0]/1e3, rq[1]/1e3
	out.Info["batch_size_mean"] = (&delta{d: d.d}).histMean("server.batch_size") // server registry: no shard prefix
	return out, nil
}
