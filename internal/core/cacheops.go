package core

// The core side of the write-through DRAM cache tier (DESIGN.md §13): frame
// coherence for committed writes. The pool itself (frames, optimistic reads,
// eviction) lives in internal/cache; read-miss fills live in ReadAt.

// patchFrames brings cached frames up to date with a just-committed write of
// p at off. Callers hold the op's node W locks, so no reader can fill a frame
// of these blocks concurrently. Present frames are patched; absent frames are
// installed only for fully covered blocks, warming the cache for
// write-then-read.
func (f *file) patchFrames(p []byte, off int64) {
	pc := f.fs.pcache
	slot := f.pf.Slot()
	end := off + int64(len(p))
	for block := off / LeafSpan; block*LeafSpan < end; block++ {
		blockLo := block * LeafSpan
		lo := max(off, blockLo)
		hi := min(end, blockLo+LeafSpan)
		chunk := p[lo-off : hi-off]
		if pc.Patch(slot, block, int(lo-blockLo), chunk, false) {
			continue
		}
		if lo == blockLo && hi == blockLo+LeafSpan {
			buf := make([]byte, LeafSpan)
			copy(buf, chunk)
			pc.Install(slot, block, buf, false)
		}
	}
}
