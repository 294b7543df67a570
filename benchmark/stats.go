package main

import (
	"math"
	"sort"
)

// samples keeps per-op latencies in a fixed preallocated buffer. When the
// buffer fills it keeps every other sample and doubles its stride, so memory
// is bounded, adding never allocates, and what is kept depends only on how
// many values were offered — not on timing.
type samples struct {
	v      []uint32
	stride int
	skip   int
	n      int64 // values offered
}

func newSamples(capacity int) *samples {
	return &samples{v: make([]uint32, 0, capacity), stride: 1}
}

func (s *samples) add(ns int64) {
	s.n++
	if s.skip++; s.skip < s.stride {
		return
	}
	s.skip = 0
	if len(s.v) == cap(s.v) {
		k := 0
		for i := 1; i < len(s.v); i += 2 {
			s.v[k] = s.v[i]
			k++
		}
		s.v = s.v[:k]
		s.stride *= 2
		return
	}
	if ns < 0 {
		ns = 0
	} else if ns > math.MaxUint32 {
		ns = math.MaxUint32
	}
	s.v = append(s.v, uint32(ns))
}

// quantiles returns the requested quantiles (nearest rank) of the kept
// samples, 0 for each when there are none.
func (s *samples) quantiles(qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(s.v) == 0 {
		return out
	}
	sorted := append([]uint32(nil), s.v...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for i, q := range qs {
		k := int(math.Ceil(q*float64(len(sorted)))) - 1
		if k < 0 {
			k = 0
		}
		out[i] = float64(sorted[k])
	}
	return out
}

func (s *samples) count() int64 { return s.n }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// ratio is a/b, 0 when b is 0 (a layer that did no work has no rate).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
