package main

import (
	"fmt"
	"math/rand"
)

// op is one generated request. The stream is built from the seed before any
// timing starts; the system under test only ever sees (read, off, size) and,
// for writes, size bytes of the payload pool from where payloadAt puts the
// op's index in its stream.
type op struct {
	off  int64
	size int32
	read bool
}

// payloadAt is where in the pool the idx-th op of a stream takes its payload:
// consecutive indexes land 62 KiB apart, and two indexes share a window only
// when they differ by a multiple of 131072.
func payloadAt(idx int) int { return idx * 7919 % (poolSize / 8) * 8 }

// unit is the oracle's tracking granularity for library workloads: every
// generated offset and size is a multiple of it.
const unit = 512

const (
	fileSize   = 32 << 20  // library workloads: one shared file
	libDevSize = 192 << 20 // room for the file, a full set of logs, metadata
	blockSize  = 4096

	// Server keyspace: 4096 single-writer slots of 4 KiB in one file, on the
	// 64 MiB device server.Config{} defaults to.
	kvSlots    = 4096
	kvSlotSize = 4096
	kvFileSize = kvSlots * kvSlotSize
	kvReadSize = 1024

	// poolSize bounds payload start offsets; the pool carries maxOpSize of
	// slack so any op can take its bytes from any start.
	poolSize  = 1 << 20
	maxOpSize = 1 << 20
)

// spec describes one workload. Library workloads (conns == 0) multiplex
// workers virtual workers on one goroutine; server workloads run
// conns*inflight issuer goroutines against an in-process mgspd.
type spec struct {
	name, why string

	workers     int // virtual workers (lib) or issuers (srv: conns*inflight)
	conns       int // srv only
	inflight    int // srv only: outstanding requests per connection
	cacheFrames int
	fsync       bool // Fsync after every write (the fig10s rung's setting)
	layoutSize  int  // sequential-pass write size
	rampOps     int  // random ops after the sequential pass, unmeasured
	smokeOps    int  // fixed measured op count at -scale smoke
	// streamOps is how many ops are generated for the measured stream: about
	// 2.5x what 8 s run today, because a window that outlasts its stream
	// starts it over, and replaying the same ops makes the system's state
	// periodic (on the Zipf workload recovery time swung 22.5 <-> 29 ms with
	// the pass count).
	streamOps int

	next func(r *rand.Rand, g *genState) op
}

func (s *spec) srv() bool { return s.conns > 0 }

// genState carries per-stream generator state (the Zipf sampler and its
// rank-to-block scatter, the issuer's slot partition).
type genState struct {
	zipf    *rand.Zipf
	scatter []int32
	issuer  int
	issuers int
}

var specs = []*spec{
	{
		name:    "lib-write-4k-1w",
		why:     "1 worker, random 4 KiB overwrites: shadow toggle + metadata-log commit + greedy lock, zero contention; host cost is core's per-op garbage",
		workers: 1, layoutSize: 4096, rampOps: 60000, smokeOps: 20000, streamOps: 3 << 20,
		next: func(r *rand.Rand, _ *genState) op {
			return op{off: r.Int63n(fileSize/4096) * 4096, size: 4096}
		},
	},
	{
		name:    "lib-write-1k-16w",
		why:     "16 virtual workers, random 1 KiB sub-block writes + fsync on one file (fig10s plateau): MGL, metadata-log home areas, bandwidth timeline",
		workers: 16, fsync: true, layoutSize: 1024, rampOps: 60000, smokeOps: 20000, streamOps: 4 << 20,
		next: func(r *rand.Rand, _ *genState) op {
			return op{off: r.Int63n(fileSize/1024) * 1024, size: 1024}
		},
	},
	{
		name:    "lib-mixed-msl-4w",
		why:     "4 workers r50/w50 at 512 B/4 KiB/256 KiB (40/40/20): readers beside writers, coarse interior logs beside fine ones; the multi-granularity case",
		workers: 4, layoutSize: 4096, rampOps: 30000, smokeOps: 8000, streamOps: 3 << 19,
		next: func(r *rand.Rand, _ *genState) op {
			size := int64(512)
			switch p := r.Intn(100); {
			case p >= 80:
				size = 256 << 10
			case p >= 40:
				size = 4096
			}
			return op{off: r.Int63n(fileSize/size) * size, size: int32(size), read: r.Intn(2) == 0}
		},
	},
	{
		name:    "lib-zipf-r90-cache-4w",
		why:     "4 workers r90/w10 4 KiB Zipf(1.1) over scattered blocks with a 2048-frame cache (1/4 of the file): seqlock reads, installs, patches, eviction",
		workers: 4, cacheFrames: 2048, layoutSize: 4096, rampOps: 150000, smokeOps: 40000, streamOps: 10 << 20,
		next: func(r *rand.Rand, g *genState) op {
			blk := int64(g.scatter[g.zipf.Uint64()])
			return op{off: blk * blockSize, size: blockSize, read: r.Intn(10) != 0}
		},
	},
	{
		name:    "srv-kv-sync",
		why:     "mgspd over loopback TCP, 2 connections x 1 outstanding, 50/50 small writes and 1 KiB reads: acked-write latency, i.e. the batcher linger",
		workers: 2, conns: 2, inflight: 1, rampOps: 200, smokeOps: 400, streamOps: kvStreamLen,
		next: kvNext,
	},
	{
		name:    "srv-kv-pipe",
		why:     "same server and keyspace, 2 connections x 4 in flight: group-commit coalescing and throughput; a linger fix must not lose this",
		workers: 8, conns: 2, inflight: 4, rampOps: 200, smokeOps: 400, streamOps: kvStreamLen,
		next: kvNext,
	},
}

// kvNext draws one op on a slot the issuer owns (slot % issuers == issuer):
// slots are single-writer, so the last acked payload per slot is exact.
func kvNext(r *rand.Rand, g *genState) op {
	slot := int64(r.Intn(kvSlots/g.issuers)*g.issuers + g.issuer)
	if r.Intn(2) == 0 {
		return op{off: slot * kvSlotSize, size: kvReadSize, read: true}
	}
	return op{off: slot * kvSlotSize, size: int32(256 + r.Intn(769))}
}

func specByName(name string) (*spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// newPool returns the payload pool: random bytes every write takes a window
// of, so two writes to one place differ and a stale read is visible.
func newPool(seed int64) []byte {
	p := make([]byte, poolSize+maxOpSize)
	rand.New(rand.NewSource(seed ^ 0x706f6f6c)).Read(p)
	return p
}

// Stream salts: the ramp and the measured stream of one seed draw different
// ops, from the same distribution (for Zipf, the same hot blocks).
const (
	saltMeasured = 0
	saltRamp     = 1
)

// genStream generates n ops for one stream (the shared stream of a library
// workload, or one issuer's stream of a server workload).
func (s *spec) genStream(seed int64, salt, n, issuer int) []op {
	r := rand.New(rand.NewSource(seed*1000003 + int64(salt)*1009 + int64(issuer)))
	g := &genState{issuer: issuer, issuers: s.workers}
	if s.cacheFrames > 0 {
		blocks := fileSize / blockSize
		g.zipf = rand.NewZipf(r, 1.1, 1, uint64(blocks-1))
		g.scatter = make([]int32, blocks)
		for i, b := range rand.New(rand.NewSource(seed ^ 0x7a697066)).Perm(blocks) {
			g.scatter[i] = int32(b)
		}
	}
	ops := make([]op, n)
	for i := range ops {
		ops[i] = s.next(r, g)
	}
	return ops
}

// layoutOps is the sequential pass over size bytes at the given write size.
func layoutOps(size int64, each int) []op {
	ops := make([]op, 0, size/int64(each))
	for off := int64(0); off < size; off += int64(each) {
		ops = append(ops, op{off: off, size: int32(each)})
	}
	return ops
}
