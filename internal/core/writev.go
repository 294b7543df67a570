package core

import (
	"fmt"
	"sort"

	"mgsp/internal/obs"
	"mgsp/internal/sim"
)

// Update is one range of a multi-range atomic write.
type Update struct {
	Off  int64
	Data []byte
}

// WriteMulti applies several discontiguous updates as ONE failure-atomic
// operation: all ranges become visible together or not at all. This is the
// transaction-level atomicity the paper lists as future work (§IV-D: "we
// hope to add related designs in future work so that existing database
// software can obtain corresponding performance gains without
// modification") — it falls out of MGSP's commit protocol naturally, since
// a metadata-log entry chain can carry the bitmap flips of any number of
// shadowed ranges and commits with a single entry persist.
func (h *handle) WriteMulti(ctx *sim.Ctx, updates []Update) error {
	if err := h.guard(); err != nil {
		return err
	}
	if len(updates) == 0 {
		return nil
	}
	f := h.f
	fs := f.fs
	fs.stats.Writes.Add(ctx.ID, 1)
	began := ctx.Now()
	var userBytes int64
	for _, u := range updates {
		userBytes += int64(len(u.Data))
	}
	fs.stats.UserWriteBytes.Add(ctx.ID, userBytes)
	// In-flight window for the checkpoint quiesce; exits after lock release
	// (LIFO defers), see WriteAt.
	fs.inFlight.Add(1)
	defer fs.opExit(ctx)
	lo, maxEnd, err := f.writeMulti(ctx, updates)
	if err != nil {
		return err
	}
	f.updateMinSearch(lo, maxEnd)
	dur := ctx.Now() - began
	fs.hWritev.Observe(dur)
	fs.trace.Record(ctx.ID, obs.OpWriteMulti, f.pf.Slot(), lo, maxEnd-lo, dur)
	return nil
}

// writeMulti is the multi-range commit body of WriteMulti. The caller owns
// the in-flight window and the stats. Returns the op's extent [lo, maxEnd)
// for the caller's bookkeeping.
func (f *file) writeMulti(ctx *sim.Ctx, updates []Update) (int64, int64, error) {
	fs := f.fs
	// Drain optimistic readers before mutating anything they might copy.
	f.writerEnter()
	defer f.writerExit()
	// Validate and find the op's extent.
	var maxEnd int64
	lo := updates[0].Off
	for _, u := range updates {
		if u.Off < 0 {
			return 0, 0, fmt.Errorf("core: negative offset %d", u.Off)
		}
		if end := u.Off + int64(len(u.Data)); end > maxEnd {
			maxEnd = end
		}
		if u.Off < lo {
			lo = u.Off
		}
	}
	for i, u := range updates {
		for _, v := range updates[i+1:] {
			if u.Off < v.Off+int64(len(v.Data)) && v.Off < u.Off+int64(len(u.Data)) {
				return 0, 0, fmt.Errorf("core: overlapping updates at %d and %d", u.Off, v.Off)
			}
		}
	}
	if err := f.pf.EnsureCapacity(ctx, maxEnd); err != nil {
		return 0, 0, err
	}
	f.ensureTree(ctx, f.pf.Capacity())

	entry := fs.mlog.claim(ctx, ctx.ID)

	// Decompose every update and lock the union in offset order.
	start := f.searchStart(ctx, lo, maxEnd)
	type part struct {
		seg  segment
		data []byte
	}
	var parts []part
	var allSegs []segment
	for _, u := range updates {
		if len(u.Data) == 0 {
			continue
		}
		segs := f.cover(ctx, f.root.Load(), u.Off, u.Off+int64(len(u.Data)), nil)
		for _, s := range segs {
			parts = append(parts, part{seg: s, data: u.Data[s.lo-u.Off : s.hi-u.Off]})
			allSegs = append(allSegs, s)
		}
	}
	sortSegments(allSegs)
	// Dedupe segments sharing a node (two updates in one leaf): W locks are
	// not reentrant.
	dedup := allSegs[:0]
	for _, s := range allSegs {
		if k := len(dedup) - 1; k >= 0 && dedup[k].n == s.n {
			if s.hi > dedup[k].hi {
				dedup[k].hi = s.hi
			}
			continue
		}
		dedup = append(dedup, s)
	}
	allSegs = dedup
	locks := f.lockOp(ctx, start, allSegs, true)
	defer f.release(ctx, locks)

	f.setExistingPath(ctx, ancestorsOf(allSegs))

	// Group leaf parts per node: several updates may land in one leaf, and
	// each sub-unit must shadow-toggle exactly once per operation.
	var writes []dataWrite
	var changes []wordChange
	leafRanges := make(map[*node][]rangeData)
	var leafOrder []*node
	for _, p := range parts {
		if p.seg.n.leaf {
			if _, ok := leafRanges[p.seg.n]; !ok {
				leafOrder = append(leafOrder, p.seg.n)
			}
			leafRanges[p.seg.n] = append(leafRanges[p.seg.n], rangeData{p.seg.lo, p.seg.hi, p.data})
		} else {
			w, c, err := f.planInterior(ctx, p.seg, p.data)
			if err != nil {
				return 0, 0, err
			}
			writes = append(writes, w)
			changes = append(changes, c)
		}
	}
	for _, n := range leafOrder {
		var err error
		writes, changes, err = f.planLeafRanges(ctx, n, leafRanges[n], writes, changes)
		if err != nil {
			return 0, 0, err
		}
	}
	for _, w := range writes {
		f.writeTo(ctx, w)
	}
	fs.dev.Fence(ctx)

	newSize := f.size.Load()
	if maxEnd > newSize {
		newSize = maxEnd
	}
	f.commitChanges(ctx, entry, lo, maxEnd-lo, newSize, changes)

	// Deferred unlock: SetSize persists the size word (a media op), and a
	// crash-injection panic there must not leak sizeMu to other workers.
	if maxEnd > f.size.Load() {
		func() {
			f.sizeMu.Lock(ctx)
			defer f.sizeMu.Unlock(ctx)
			if maxEnd > f.size.Load() {
				f.size.Store(maxEnd)
				f.pf.SetSize(ctx, maxEnd)
			}
		}()
	}
	fs.mlog.retire(ctx, entry)
	if fs.pcache != nil {
		// Committed: bring overlapping frames up to date while the W locks
		// still exclude readers (release is deferred).
		for _, u := range updates {
			f.patchFrames(u.Data, u.Off)
		}
	}
	return lo, maxEnd, nil
}

func sortSegments(segs []segment) {
	sort.Slice(segs, func(i, j int) bool { return segs[i].lo < segs[j].lo })
}
