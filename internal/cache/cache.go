// Package cache is MGSP's volatile DRAM frame tier: a fixed-capacity,
// set-associative, write-through pool of block-sized frames keyed by (slot,
// block) sitting between the vfs API and the shadow tree; core's slot names
// one incarnation of a file's content, never reused. Reads are
// optimistic and latch-free — a reader copies from a frame and validates a
// per-frame version counter (Lersch et al.'s optimistic-consistency
// protocol), never taking a latch — while installs, patches, and clock
// eviction serialize on a per-set mutex that is only ever held across pure
// DRAM work, never across a media operation.
//
// Crash consistency never depends on this package: a frame only ever mirrors
// content the shadow log has already committed, so every frame is a
// redundant copy — evicting or losing one costs a media read, never data —
// and a remount always starts from an empty pool. See DESIGN.md §13.
//
// Concurrency protocol (the part -race cares about): every frame field that
// the latch-free reader touches is atomic, and frame content lives behind an
// atomic.Pointer to an immutable buffer. Mutations never write a published
// buffer in place — they copy, patch the copy, and swap the pointer inside
// an odd/even seqlock window on the version counter. A reader that observed
// an even version before and after its copy saw one consistent (key, data)
// pair; anything else retries, and a reader that keeps colliding reports a
// miss, which the caller serves from media.
package cache

import (
	"sync"
	"sync/atomic"

	"mgsp/internal/obs"
)

// ways is the set associativity. Eight frames per set keeps the optimistic
// probe short (at most eight version loads) while giving the clock hand a
// real choice of victim.
const ways = 8

// optimisticRetries bounds the latch-free attempts before a read gives up
// and reports a miss. Conflicts are short (a patch is one buffer swap), so
// one retry usually suffices; the bound keeps the worst case finite.
const optimisticRetries = 3

// frame is one cached block. All fields the latch-free read path touches are
// atomics; data points to an immutable buffer (copy-on-write on every patch).
// ver is the seqlock: odd while a mutation is in progress, bumped to a new
// even value when it publishes. slot is -1 while the frame is empty.
type frame struct {
	ver   atomic.Uint64 //mgsp:seqlock
	slot  atomic.Int64
	block atomic.Int64
	data  atomic.Pointer[[]byte]
	ref   atomic.Bool // clock reference bit
}

// set is one associativity set: a mutex serializing mutations (pure DRAM,
// never held across media ops) and a clock hand for eviction.
type set struct {
	mu     sync.Mutex
	hand   int
	frames [ways]frame
}

// Pool is the frame pool. The zero value is not usable; call New.
type Pool struct {
	sets      []set
	mask      int64
	blockSize int64

	// Metrics (registered under "cache." by Register).
	hits      obs.Counter
	misses    obs.Counter
	evictions obs.Counter
	readRetry obs.Counter
}

// New builds a pool of at least `frames` block-sized frames. The set count
// rounds up to a power of two, so the real capacity can exceed the request
// by up to one set; Frames reports the actual value.
func New(frames int, blockSize int64) *Pool {
	if frames < 1 {
		frames = 1
	}
	nsets := 1
	for nsets*ways < frames {
		nsets <<= 1
	}
	p := &Pool{sets: make([]set, nsets), mask: int64(nsets - 1), blockSize: blockSize}
	for s := range p.sets {
		for w := range p.sets[s].frames {
			p.sets[s].frames[w].slot.Store(-1)
		}
	}
	return p
}

// Frames returns the pool capacity in frames.
func (p *Pool) Frames() int { return len(p.sets) * ways }

// BlockSize returns the frame size in bytes.
func (p *Pool) BlockSize() int64 { return p.blockSize }

func (p *Pool) setFor(slot int, block int64) *set {
	// Fibonacci-style mix so files sharing low block numbers spread out.
	h := (uint64(block)*0x9E3779B97F4A7C15 + uint64(slot)*0xFF51AFD7ED558CCD)
	return &p.sets[int64(h>>32)&p.mask]
}

// Read copies len(dst) bytes at byte offset off within the cached (slot,
// block) frame into dst. It never takes a latch: copy, then validate the
// version. Returns false on a miss — the frame is absent, or every attempt
// collided with a concurrent mutation. Either way the media holds the
// committed content, so the caller's fallback read is always correct.
func (p *Pool) Read(slot int, block int64, dst []byte, off int) bool {
	hit, retries := readOptimistic(p.setFor(slot, block), slot, block, dst, off)
	if retries > 0 {
		p.readRetry.Add(retries)
	}
	if hit {
		p.hits.Add(1)
		return true
	}
	p.misses.Add(1)
	return false
}

// readOptimistic runs the latch-free attempts over the set. Its seqlock read
// sections are pure copies — all metric accounting is returned to the caller,
// because an effect inside an unvalidated section cannot be rolled back when
// the validation fails.
func readOptimistic(s *set, slot int, block int64, dst []byte, off int) (hit bool, retries int64) {
	for attempt := 0; attempt < optimisticRetries; attempt++ {
		conflict := false
		for w := range s.frames {
			f := &s.frames[w]
			v1 := f.ver.Load()
			if v1&1 != 0 {
				conflict = true
				continue
			}
			if f.slot.Load() != int64(slot) || f.block.Load() != block {
				// Re-validate before ruling the frame out: if it mutated under
				// us the identity snapshot is stale and the frame may have just
				// become the one we want.
				if f.ver.Load() != v1 {
					conflict = true
				}
				continue
			}
			data := f.data.Load()
			if data == nil {
				if f.ver.Load() != v1 {
					conflict = true
				}
				continue
			}
			copy(dst, (*data)[off:off+len(dst)])
			if f.ver.Load() == v1 {
				f.ref.Store(true)
				return true, retries
			}
			conflict = true
		}
		if !conflict {
			return false, retries
		}
		retries++
	}
	return false, retries
}

// find locates the frame for (slot, block) in s. Callers hold s.mu.
func (s *set) find(slot int, block int64) *frame {
	for w := range s.frames {
		f := &s.frames[w]
		if f.slot.Load() == int64(slot) && f.block.Load() == block && f.data.Load() != nil {
			return f
		}
	}
	return nil
}

// publish runs one seqlock-protected mutation of f. Callers hold the set
// mutex (so writers never collide and the odd window is exclusive).
func publish(f *frame, mutate func()) {
	f.ver.Add(1) // odd: mutation in progress
	mutate()
	f.ver.Add(1) // even: published
}

// Install inserts a frame for (slot, block), taking ownership of data
// (callers must not touch it afterwards; len(data) must equal the block
// size). If the key is already present the existing frame's content is
// replaced; otherwise the victim is an empty way or the clock's next frame.
// The trailing bool is unused; the benchmark module still passes it.
func (p *Pool) Install(slot int, block int64, data []byte, _ bool) {
	s := p.setFor(slot, block)
	s.mu.Lock()
	defer s.mu.Unlock()
	f := s.find(slot, block)
	if f == nil {
		f = s.victim(p)
	}
	publish(f, func() {
		f.slot.Store(int64(slot))
		f.block.Store(block)
		f.data.Store(&data)
	})
	f.ref.Store(true)
}

// victim picks an empty way, or sweeps the clock hand (second chance on the
// ref bit): the first lap clears ref bits, so the sweep always ends within
// two laps. Callers hold s.mu.
func (s *set) victim(p *Pool) *frame {
	for w := range s.frames {
		if s.frames[w].data.Load() == nil {
			return &s.frames[w]
		}
	}
	for {
		f := &s.frames[s.hand]
		s.hand = (s.hand + 1) % ways
		if !f.ref.Swap(false) {
			p.evictions.Add(1)
			return f
		}
	}
}

// Patch overlays data at byte offset off of the cached (slot, block) frame,
// copy-on-write: the published buffer is never written in place. Callers
// patch with content that has just committed through the shadow log.
// Returns false when the frame is absent. The trailing bool is unused; the
// benchmark module still passes it.
func (p *Pool) Patch(slot int, block int64, off int, data []byte, _ bool) bool {
	s := p.setFor(slot, block)
	s.mu.Lock()
	defer s.mu.Unlock()
	f := s.find(slot, block)
	if f == nil {
		return false
	}
	old := *f.data.Load()
	buf := make([]byte, len(old))
	copy(buf, old)
	copy(buf[off:], data)
	publish(f, func() { f.data.Store(&buf) })
	f.ref.Store(true)
	return true
}

// Range calls fn with the key, block and content of every resident frame,
// one set at a time under its mutex. fn must not call back into the pool.
func (p *Pool) Range(fn func(slot int, block int64, data []byte)) {
	for i := range p.sets {
		s := &p.sets[i]
		s.mu.Lock()
		for w := range s.frames {
			if f := &s.frames[w]; f.data.Load() != nil {
				fn(int(f.slot.Load()), f.block.Load(), *f.data.Load())
			}
		}
		s.mu.Unlock()
	}
}

// Stats is a point-in-time copy of the pool counters, for tests.
type Stats struct {
	Hits, Misses, Evictions, ReadRetries int64
}

// Stats returns the counters.
func (p *Pool) Stats() Stats {
	return Stats{
		Hits:        p.hits.Load(),
		Misses:      p.misses.Load(),
		Evictions:   p.evictions.Load(),
		ReadRetries: p.readRetry.Load(),
	}
}

// Register publishes the pool metrics into r under prefix (core uses
// "cache."): hit/miss/eviction/optimistic-retry counters.
func (p *Pool) Register(r *obs.Registry, prefix string) {
	r.RegisterCounter(prefix+"hits", &p.hits)
	r.RegisterCounter(prefix+"misses", &p.misses)
	r.RegisterCounter(prefix+"evictions", &p.evictions)
	r.RegisterCounter(prefix+"read_retry", &p.readRetry)
}
