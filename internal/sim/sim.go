// Package sim provides the virtual-time simulation substrate shared by every
// file system and workload in this repository.
//
// The reproduction replaces wall-clock measurement on Intel Optane hardware
// with deterministic virtual time: each worker carries a virtual clock, every
// modeled action (media access, cache-line flush, fence, syscall, ...) advances
// that clock by an amount taken from a calibrated cost model, and
// synchronization primitives carry virtual release times across goroutines so
// that lock contention serializes virtual time exactly the way it serializes
// real time. Shared hardware resources with finite bandwidth (the persistent
// memory DIMMs behind the integrated memory controller) are modeled by a
// Timeline that workers reserve service slots on.
//
// Virtual time makes every benchmark in this repository deterministic for a
// fixed seed and nearly independent of the Go scheduler and garbage collector,
// while preserving the relative performance shapes the paper reports.
package sim

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
)

// MediaTally accumulates the media traffic attributable to one worker (or one
// subsystem, e.g. the background cleaner). The device-wide counters in
// nvm.Stats cannot separate foreground from background traffic; a context
// carrying a tally gets its own attribution on top of them. Ops counts the
// persistence-affecting operations nvm.Stats.MediaOps counts, and like it
// stops at the power cut.
type MediaTally struct {
	ReadBytes  atomic.Int64
	WriteBytes atomic.Int64
	Ops        atomic.Int64
}

// Ctx is a per-worker simulation context. Exactly one goroutine may use a Ctx
// at a time; workloads create one Ctx per worker thread.
type Ctx struct {
	// ID identifies the worker (the paper hashes thread IDs to claim
	// metadata-log entries; we hash Ctx.ID).
	ID int
	// Rand is the worker-private PRNG used by workload generators.
	Rand *rand.Rand
	// Tally, when non-nil, receives per-context media traffic attribution
	// from the device (benchmarks use it to report background-writer I/O
	// separately from foreground I/O).
	Tally *MediaTally

	now int64 // virtual nanoseconds
}

// NewCtx returns a worker context with the given id and seed.
func NewCtx(id int, seed int64) *Ctx {
	return &Ctx{ID: id, Rand: rand.New(rand.NewSource(seed))}
}

// Now returns the worker's current virtual time in nanoseconds.
func (c *Ctx) Now() int64 { return c.now }

// Advance moves the worker's virtual clock forward by d nanoseconds.
func (c *Ctx) Advance(d int64) {
	if d > 0 {
		c.now += d
	}
}

// AdvanceTo moves the worker's clock to t if t is later than the current time.
func (c *Ctx) AdvanceTo(t int64) {
	if t > c.now {
		c.now = t
	}
}

// Reset rewinds the clock to zero (used between benchmark phases).
func (c *Ctx) Reset() { c.now = 0 }

// String implements fmt.Stringer for debugging.
func (c *Ctx) String() string { return fmt.Sprintf("ctx(%d)@%dns", c.ID, c.now) }

// MaxTime returns the latest virtual time across worker contexts. Throughput
// for a multi-worker run is total work divided by MaxTime, mirroring how FIO
// reports aggregate bandwidth for a fixed runtime.
func MaxTime(ctxs []*Ctx) int64 {
	var m int64
	for _, c := range ctxs {
		if c.now > m {
			m = c.now
		}
	}
	return m
}

// Mutex is a mutual-exclusion lock that models contention in virtual time:
// each critical section books a busy interval, and a later acquirer starts
// its section at the earliest free point at or after its own virtual clock.
// Sections that genuinely overlap in virtual time therefore serialize, while
// a worker whose goroutine happened to run late in real time can backfill
// free virtual time instead of queueing behind the other workers' entire
// histories. The zero value is an unlocked mutex.
type Mutex struct {
	mu       sync.Mutex
	sections GapList
	cur      int64 // current holder's virtual section start
}

// Lock acquires the mutex and moves ctx to the start of a free virtual slot.
func (m *Mutex) Lock(ctx *Ctx) {
	m.mu.Lock()
	m.cur = m.sections.FindStart(ctx.now, 1)
	ctx.AdvanceTo(m.cur)
}

// TryLock attempts to acquire the mutex without blocking and reports whether
// it succeeded.
func (m *Mutex) TryLock(ctx *Ctx) bool {
	if !m.mu.TryLock() {
		return false
	}
	m.cur = m.sections.FindStart(ctx.now, 1)
	ctx.AdvanceTo(m.cur)
	return true
}

// Unlock releases the mutex, booking the just-finished virtual section.
// The section's true length is only known now; if the tentative start
// overlaps other sections, the whole section (and the holder's clock) is
// pushed to the first gap that fits — this is what serializes genuinely
// contended critical sections.
func (m *Mutex) Unlock(ctx *Ctx) {
	dur := ctx.now - m.cur
	if dur < 1 {
		dur = 1
	}
	start := m.sections.FindStart(m.cur, dur)
	ctx.Advance(start - m.cur)
	m.sections.Insert(start, start+dur)
	m.mu.Unlock()
}

// RWMutex is a readers-writer lock modeling contention in virtual time:
// reader sections may overlap one another but not writer sections, and
// writer sections overlap nothing.
type RWMutex struct {
	mu sync.RWMutex

	bk      sync.Mutex // bookkeeping below
	wIvs    GapList    // writer sections
	rIvs    GapList    // reader sections (coalesced)
	wCur    int64
	rStarts map[*Ctx]int64
}

// RLock acquires a read lock.
func (rw *RWMutex) RLock(ctx *Ctx) {
	rw.mu.RLock()
	rw.noteReader(ctx)
}

// TryRLock attempts to acquire a read lock without blocking.
func (rw *RWMutex) TryRLock(ctx *Ctx) bool {
	if !rw.mu.TryRLock() {
		return false
	}
	rw.noteReader(ctx)
	return true
}

func (rw *RWMutex) noteReader(ctx *Ctx) {
	rw.bk.Lock()
	pos := rw.wIvs.FindStart(ctx.now, 1)
	if rw.rStarts == nil {
		rw.rStarts = make(map[*Ctx]int64)
	}
	rw.rStarts[ctx] = pos
	rw.bk.Unlock()
	ctx.AdvanceTo(pos)
}

// RUnlock releases a read lock. Reader sections may overlap one another but
// not writer sections; an overlapping reader is pushed past the writers.
func (rw *RWMutex) RUnlock(ctx *Ctx) {
	rw.bk.Lock()
	pos, ok := rw.rStarts[ctx]
	if ok {
		delete(rw.rStarts, ctx)
		dur := ctx.now - pos
		if dur < 1 {
			dur = 1
		}
		start := rw.wIvs.FindStart(pos, dur)
		rw.rIvs.Insert(start, start+dur)
		rw.bk.Unlock()
		ctx.Advance(start - pos)
		rw.mu.RUnlock()
		return
	}
	rw.bk.Unlock()
	rw.mu.RUnlock()
}

// Lock acquires the write lock.
func (rw *RWMutex) Lock(ctx *Ctx) {
	rw.mu.Lock()
	rw.noteWriter(ctx)
}

// TryLock attempts to acquire the write lock without blocking.
func (rw *RWMutex) TryLock(ctx *Ctx) bool {
	if !rw.mu.TryLock() {
		return false
	}
	rw.noteWriter(ctx)
	return true
}

func (rw *RWMutex) noteWriter(ctx *Ctx) {
	rw.bk.Lock()
	pos := ctx.now
	for {
		p := rw.wIvs.FindStart(pos, 1)
		p = rw.rIvs.FindStart(p, 1)
		if p == pos {
			break
		}
		pos = p
	}
	rw.wCur = pos
	rw.bk.Unlock()
	ctx.AdvanceTo(pos)
}

// Unlock releases the write lock, placing the full section in the first
// gap free of both reader and writer sections.
func (rw *RWMutex) Unlock(ctx *Ctx) {
	rw.bk.Lock()
	dur := ctx.now - rw.wCur
	if dur < 1 {
		dur = 1
	}
	pos := rw.wCur
	for {
		p := rw.wIvs.FindStart(pos, dur)
		p = rw.rIvs.FindStart(p, dur)
		if p == pos {
			break
		}
		pos = p
	}
	rw.wIvs.Insert(pos, pos+dur)
	rw.bk.Unlock()
	ctx.Advance(pos - rw.wCur)
	rw.mu.Unlock()
}

// Timeline models a shared finite-bandwidth resource (the PM DIMMs behind
// the memory controller). Workers reserve service intervals in virtual time;
// when the resource is saturated a reservation is pushed later, advancing
// the worker's virtual clock. Multiple channels model internal parallelism
// (the paper's testbed interleaves four Optane DIMMs).
//
// Reservations are kept as per-channel interval gap-lists rather than a
// single high-water mark: the Go scheduler may run one worker's entire
// virtual lifetime before another worker starts, so a late-scheduled worker
// whose virtual clock is far in the "past" must be able to backfill gaps
// that were genuinely free at its virtual time — otherwise concurrent
// workloads would serialize behind each other's future reservations.
type Timeline struct {
	channels []tlChannel
}

type tlChannel struct {
	mu sync.Mutex
	gl GapList
}

// NewTimeline returns a timeline with n parallel channels (n >= 1).
func NewTimeline(n int) *Timeline {
	if n < 1 {
		n = 1
	}
	return &Timeline{channels: make([]tlChannel, n)}
}

// Reserve books dur nanoseconds of service starting no earlier than ctx's
// current time on the channel that can complete it first, and advances ctx
// to the completion time. Probing starts at the worker's home channel (a
// hash of Ctx.ID) so that start-time ties — the common case on an idle or
// lightly loaded timeline — spread across channels instead of all breaking
// toward channel 0; best-fit still wins whenever a strictly earlier start
// exists elsewhere, so saturation behavior is unchanged.
func (t *Timeline) Reserve(ctx *Ctx, dur int64) {
	if dur <= 0 {
		return
	}
	n := len(t.channels)
	home := WorkerHash(ctx.ID) % n
	best := -1
	var bestStart int64
	for i := 0; i < n; i++ {
		ch := home + i
		if ch >= n {
			ch -= n
		}
		s := t.channels[ch].probe(ctx.now, dur)
		if best < 0 || s < bestStart {
			best, bestStart = ch, s
		}
	}
	start := t.channels[best].book(ctx.now, dur)
	ctx.AdvanceTo(start + dur)
}

// WorkerHash mixes a worker ID into a well-spread non-negative value. Worker
// IDs are not dense — foreground workers count 0..N-1 but background actors
// use sparse high IDs (the cleaner's 1<<20, harness setup IDs) — so a plain
// modulus would collide them all onto slot 0. The xor-folds pull high bits
// down before the multiplicative scramble; for IDs 0..63 the low six bits
// remain a bijection (the folds are identity there and the multiplier is
// odd), which gives small worker fleets perfectly disjoint homes in any
// power-of-two table of at least their size.
func WorkerHash(id int) int {
	h := uint32(id)
	h ^= h >> 16
	h ^= h >> 8
	h *= 0x9E3779B1
	return int(h & 0x7FFFFFFF)
}

// probe returns where a reservation would start (without booking).
func (c *tlChannel) probe(at, dur int64) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gl.FindStart(at, dur)
}

// book reserves [start, start+dur) at the earliest feasible start >= at.
func (c *tlChannel) book(at, dur int64) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	start := c.gl.FindStart(at, dur)
	c.gl.Insert(start, start+dur)
	return start
}

// Reset clears all reservations (between benchmark phases).
func (t *Timeline) Reset() {
	for i := range t.channels {
		c := &t.channels[i]
		c.mu.Lock()
		c.gl.Reset()
		c.mu.Unlock()
	}
}
