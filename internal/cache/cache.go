// Package cache is MGSP's volatile DRAM frame tier: a fixed-capacity,
// set-associative, write-through pool of block-sized frames keyed by (slot,
// block) sitting between the vfs API and the shadow tree; core's slot names
// one incarnation of a file's content, never reused. It stands in for the
// kernel page cache, so it is a plain latched cache: each set's mutex guards
// its frames, and every read, install, patch and clock eviction runs under
// it. The mutex is only ever held across pure DRAM work, never across a
// media operation.
//
// Crash consistency never depends on this package: a frame only ever mirrors
// content the shadow log has already committed, so every frame is a
// redundant copy — evicting or losing one costs a media read, never data —
// and a remount always starts from an empty pool. See DESIGN.md §13.
package cache

import (
	"sync"

	"mgsp/internal/obs"
)

// ways is the set associativity. Eight frames per set keeps the probe short
// while giving the clock hand a real choice of victim.
const ways = 8

// frame is one cached block; data is nil while the frame is empty. Every
// field is guarded by the owning set's mutex.
type frame struct {
	slot  int
	block int64
	data  []byte
	ref   bool // clock reference bit
}

// set is one associativity set: a mutex guarding its frames (pure DRAM,
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
	return &Pool{sets: make([]set, nsets), mask: int64(nsets - 1), blockSize: blockSize}
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
// block) frame into dst, under the set mutex. It returns false when the
// frame is absent; the media then holds the committed content, so the
// caller's fallback read is always correct.
func (p *Pool) Read(slot int, block int64, dst []byte, off int) bool {
	s := p.setFor(slot, block)
	s.mu.Lock()
	f := s.find(slot, block)
	if f != nil {
		copy(dst, f.data[off:off+len(dst)])
		f.ref = true
	}
	s.mu.Unlock()
	if f == nil {
		p.misses.Add(1)
		return false
	}
	p.hits.Add(1)
	return true
}

// find locates the frame for (slot, block) in s. Callers hold s.mu.
func (s *set) find(slot int, block int64) *frame {
	for w := range s.frames {
		f := &s.frames[w]
		if f.data != nil && f.slot == slot && f.block == block {
			return f
		}
	}
	return nil
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
	*f = frame{slot: slot, block: block, data: data, ref: true}
}

// victim picks an empty way, or sweeps the clock hand (second chance on the
// ref bit): the first lap clears ref bits, so the sweep always ends within
// two laps. Callers hold s.mu.
func (s *set) victim(p *Pool) *frame {
	for w := range s.frames {
		if s.frames[w].data == nil {
			return &s.frames[w]
		}
	}
	for {
		f := &s.frames[s.hand]
		s.hand = (s.hand + 1) % ways
		if !f.ref {
			p.evictions.Add(1)
			return f
		}
		f.ref = false
	}
}

// Patch overlays data at byte offset off of the cached (slot, block) frame,
// in place under the set mutex. Callers patch with content that has just
// committed through the shadow log. Returns false when the frame is absent.
// The trailing bool is unused; the benchmark module still passes it.
func (p *Pool) Patch(slot int, block int64, off int, data []byte, _ bool) bool {
	s := p.setFor(slot, block)
	s.mu.Lock()
	defer s.mu.Unlock()
	f := s.find(slot, block)
	if f == nil {
		return false
	}
	copy(f.data[off:], data)
	f.ref = true
	return true
}

// Range calls fn with the key, block and content of every resident frame,
// one set at a time under its mutex. fn must not call back into the pool.
func (p *Pool) Range(fn func(slot int, block int64, data []byte)) {
	for i := range p.sets {
		s := &p.sets[i]
		s.mu.Lock()
		for w := range s.frames {
			if f := &s.frames[w]; f.data != nil {
				fn(f.slot, f.block, f.data)
			}
		}
		s.mu.Unlock()
	}
}

// Stats is a point-in-time copy of the pool counters, for tests.
type Stats struct {
	Hits, Misses, Evictions int64
}

// Stats returns the counters.
func (p *Pool) Stats() Stats {
	return Stats{
		Hits:      p.hits.Load(),
		Misses:    p.misses.Load(),
		Evictions: p.evictions.Load(),
	}
}

// Register publishes the pool metrics into r under prefix (core uses
// "cache."): hit/miss/eviction counters.
func (p *Pool) Register(r *obs.Registry, prefix string) {
	r.RegisterCounter(prefix+"hits", &p.hits)
	r.RegisterCounter(prefix+"misses", &p.misses)
	r.RegisterCounter(prefix+"evictions", &p.evictions)
}
